package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// bodyBufs recycles admit's body buffers: decodeRequest keeps no byte of its input.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeRequest fills the zero *req from body: exactly one JSON object, then
// only whitespace. What clients send (json.Marshal of a Request, jq's output)
// takes decodeFast; anything else goes whole to json.Unmarshal, the reference
// FuzzDecodeRequest holds decodeFast to.
func decodeRequest(body []byte, req *Request) error {
	if decodeFast(body, req) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(body, req)
}

// decodeFast decodes body into req if body keeps to the fast path's grammar —
// a flat object of Request's keys, spelled as their json tags, holding values
// value reads — and reports whether it did; on false req holds partial writes.
func decodeFast(body []byte, req *Request) bool {
	fields := map[string]any{
		"algorithm": &req.Algorithm, "graph": &req.Graph, "graph_ref": &req.GraphRef,
		"ranks": &req.Ranks, "partition": &req.Partition, "seed": &req.Seed, "superstep": &req.Superstep,
		"comm": &req.Comm, "distance2": &req.Distance2, "no_bundle": &req.NoBundle,
		"timeout_ms": &req.TimeoutMillis, "no_cache": &req.NoCache,
	}
	d := &fastDecoder{b: body}
	if !d.skip('{') {
		return false
	}
	for more := !d.skip('}'); more; {
		var key string
		if !d.str(&key) || !d.skip(':') {
			return false
		}
		if dst, known := fields[key]; !known || !d.value(dst) {
			return false
		}
		if more = d.skip(','); !more && !d.skip('}') {
			return false
		}
	}
	return d.i == len(d.b)
}

// fastDecoder is decodeFast's position in the body.
type fastDecoder struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (d *fastDecoder) ws() {
	for d.i < len(d.b) && strings.IndexByte(" \t\n\r", d.b[d.i]) >= 0 {
		d.i++
	}
}

// skip consumes c and the whitespace around it, if c comes next.
func (d *fastDecoder) skip(c byte) bool {
	if d.ws(); d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		d.ws()
		return true
	}
	return false
}

// value reads one value of dst's type: a string (see str), true or false, or
// an integer as JSON spells one, -?(0|[1-9][0-9]*), that fits.
func (d *fastDecoder) value(dst any) bool {
	if p, ok := dst.(*string); ok {
		return d.str(p)
	}
	start := d.i
	for d.i < len(d.b) && strings.IndexByte(",} \t\n\r", d.b[d.i]) < 0 {
		d.i++
	}
	tok := string(d.b[start:d.i])
	// strconv also takes a '+' and leading zeros; JSON does not.
	if digits := strings.TrimPrefix(tok, "-"); digits == "" || digits[0] == '+' || digits[0] == '0' && len(digits) > 1 {
		tok = ""
	}
	var err error
	switch p := dst.(type) {
	case *bool:
		*p = tok == "true"
		return *p || tok == "false"
	case *int:
		v, e := strconv.ParseInt(tok, 10, strconv.IntSize)
		*p, err = int(v), e
	case *int64:
		*p, err = strconv.ParseInt(tok, 10, 64)
	case *uint64:
		*p, err = strconv.ParseUint(tok, 10, 64)
	}
	return err == nil
}

// unescape maps the byte after a backslash to what it stands for; 0 leaves it to json.Unmarshal.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'n': '\n', 't': '\t', 'r': '\r'}

// plain marks the bytes a string holds as they are: all but ", \ and controls.
var plain = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= ' ' && c != '"' && c != '\\'
	}
	return t
}()

// str reads a string of valid UTF-8 with no control character and no escape
// outside unescape, allocating the result once.
func (d *fastDecoder) str(dst *string) bool {
	if d.i == len(d.b) || d.b[d.i] != '"' { // skip left d past any whitespace
		return false
	}
	b, i, escapes := d.b, d.i+1, 0
	for ; i < len(b) && b[i] != '"'; i++ {
		if !plain[b[i]] { // a control character, or a backslash
			if b[i] != '\\' || i+1 == len(b) || unescape[b[i+1]] == 0 {
				return false
			}
			i++
			escapes++
		}
	}
	if i == len(b) {
		return false
	}
	raw := b[d.i+1 : i]
	if d.i = i + 1; !utf8.Valid(raw) {
		return false
	}
	var sb strings.Builder
	sb.Grow(len(raw) - escapes)
	for k := bytes.IndexByte(raw, '\\'); k >= 0; k = bytes.IndexByte(raw, '\\') {
		sb.Write(raw[:k])
		sb.WriteByte(unescape[raw[k+1]])
		raw = raw[k+2:]
	}
	sb.Write(raw)
	*dst = sb.String()
	return true
}
