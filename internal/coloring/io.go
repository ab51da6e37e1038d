package coloring

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// WriteColors writes a coloring as text: a "coloring <n>" header, then one
// color per line in vertex order, rendered by AppendColors into one buffer
// and handed to w in a single Write.
func WriteColors(w io.Writer, c Colors) error {
	_, err := w.Write(AppendColors(nil, c))
	return err
}

// AppendColors appends WriteColors' text of c to dst, growing it first to
// three bytes a vertex, which holds every color below 100. Such a color is
// one or two graph.DigitPairs bytes; the unsigned compare sends the rest,
// -1 included, to strconv.
func AppendColors(dst []byte, c Colors) []byte {
	dst = slices.Grow(dst, len("coloring \n")+20+3*len(c))
	dst = append(dst, "coloring "...)
	dst = strconv.AppendInt(dst, int64(len(c)), 10)
	dst = append(dst, '\n')
	for _, col := range c {
		switch {
		case uint32(col) < 10:
			dst = append(dst, byte('0'+col), '\n')
		case uint32(col) < 100:
			dst = append(dst, graph.DigitPairs[2*col], graph.DigitPairs[2*col+1], '\n')
		default:
			dst = strconv.AppendInt(dst, int64(col), 10)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// ReadColors parses the format written by WriteColors. The array grows with
// the color lines read, never to the header's count ahead of them, and a
// count past math.MaxInt32 is refused: a short file cannot make the reader
// allocate for vertices it does not color.
func ReadColors(r io.Reader) (Colors, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows with the longest line, up to 1 MiB
	var (
		c        Colors
		declared = -1
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "coloring ") {
			if declared >= 0 {
				return nil, fmt.Errorf("coloring: line %d: second header", lineNo)
			}
			n, err := strconv.Atoi(strings.TrimSpace(line[len("coloring "):]))
			if err != nil || n < 0 || n > math.MaxInt32 {
				return nil, fmt.Errorf("coloring: line %d: bad header", lineNo)
			}
			declared = n
			continue
		}
		if declared < 0 {
			return nil, fmt.Errorf("coloring: line %d: color before header", lineNo)
		}
		if len(c) == declared {
			return nil, fmt.Errorf("coloring: line %d: more colors than declared", lineNo)
		}
		v, err := strconv.ParseInt(line, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("coloring: line %d: %v", lineNo, err)
		}
		c = append(c, int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declared < 0 {
		return nil, fmt.Errorf("coloring: missing header")
	}
	if len(c) != declared {
		return nil, fmt.Errorf("coloring: %d colors for %d declared vertices", len(c), declared)
	}
	return c, nil
}

// ReadColorsFile reads a coloring from path.
func ReadColorsFile(path string) (Colors, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadColors(f)
}
