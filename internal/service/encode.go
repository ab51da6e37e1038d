package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// respBufs recycles writeResponse's bodies, as encoding/json recycles its
// encoder's: Write is done with the bytes when it returns.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResponse sends resp as json.NewEncoder(w).Encode would — the same
// bytes, trailing newline included — with a Content-Length.
func writeResponse(w http.ResponseWriter, resp *Response) error {
	w.Header().Set("Content-Type", "application/json")
	buf := respBufs.Get().(*[]byte)
	defer respBufs.Put(buf)
	body, err := appendResponse((*buf)[:0], resp)
	*buf = body
	if err != nil {
		return err
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, err = w.Write(body)
	return err
}

// appendResponse appends Encode's bytes of resp to dst. encoding/json, the
// reference FuzzResponseBody holds this to, marshals resp with an empty
// result; appendJSONString's escape of the result goes in at the
// `"result":""` that leaves. No string field follows result, and no
// unescaped quote can sit inside a value, so the last such match is the
// field.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	shell := *resp
	shell.Result = ""
	head, err := json.Marshal(&shell)
	if err != nil {
		return dst, err
	}
	at := bytes.LastIndex(head, []byte(`"result":""`)) + len(`"result":"`)
	// A result text's only byte to escape is its newline, one byte more
	// each: the body's exact size, which other text outgrows only by
	// appending, and escapeSlack to escape in.
	dst = slices.Grow(dst, len(head)+len(resp.Result)+strings.Count(resp.Result, "\n")+escapeSlack)
	dst = append(dst, head[:at]...)
	dst = appendJSONString(dst, resp.Result)
	dst = append(dst, head[at:]...)
	return append(dst, '\n'), nil
}

// escapeChunk is how many bytes of its input appendJSONString escapes per
// room check; escapeSlack is the room: each step starts at a byte of the
// chunk (a rune may end past it) and writes at most six bytes.
const (
	escapeChunk = 4096
	escapeSlack = 6 * escapeChunk
)

// jsonEscape is appendJSONString's table, by byte: 0 copies the byte as it
// is, 'u' writes it as \u00XX (controls, and <, > and & as encoding/json's
// HTML escaping does), utf8.RuneSelf marks a byte of a multi-byte sequence,
// and any other value v writes \v.
var jsonEscape = func() (t [256]byte) {
	for b := range 0x20 {
		t[b] = 'u'
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	t['"'], t['\\'] = '"', '\\'
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	for b := utf8.RuneSelf; b < len(t); b++ {
		t[b] = utf8.RuneSelf
	}
	return t
}()

// appendJSONString appends s's JSON string encoding, without the quotes, as
// encoding/json writes it: the escapes jsonEscape names, \ufffd for each
// byte of invalid UTF-8, and \u2028 / \u2029 for the two line separators.
// It works through s a chunk at a time: room for the chunk's worst case
// first, then the chunk written by index. dst keeps its array when it has
// escapeSlack bytes spare past s's escape.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	for i := 0; i < len(s); {
		end := min(len(s), i+escapeChunk)
		dst = slices.Grow(dst, escapeSlack)
		out := dst[len(dst):cap(dst)]
		k := 0
		for i < end {
			c := s[i]
			switch e := jsonEscape[c]; e {
			case 0:
				out[k] = c
				k++
				i++
			case 'u':
				out[k], out[k+1], out[k+2], out[k+3], out[k+4], out[k+5] = '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF]
				k += 6
				i++
			case utf8.RuneSelf:
				r, size := utf8.DecodeRuneInString(s[i:])
				switch {
				case r == utf8.RuneError && size == 1:
					k += copy(out[k:], `\ufffd`)
				case r == '\u2028' || r == '\u2029':
					out[k], out[k+1], out[k+2], out[k+3], out[k+4], out[k+5] = '\\', 'u', '2', '0', '2', hex[r&0xF]
					k += 6
				default:
					k += copy(out[k:], s[i:i+size])
				}
				i += size
			default:
				out[k], out[k+1] = '\\', e
				k += 2
				i++
			}
		}
		dst = dst[:len(dst)+k]
	}
	return dst
}
