package coloring

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteColors writes a coloring as text: a "coloring <n>" header, then one
// color per line in vertex order. The text is rendered into one buffer —
// sized for colors below 1000, which is every coloring but a pathological
// one — and handed to w in a single Write.
func WriteColors(w io.Writer, c Colors) error {
	buf := make([]byte, 0, len("coloring \n")+20+4*len(c))
	buf = append(buf, "coloring "...)
	buf = strconv.AppendInt(buf, int64(len(c)), 10)
	buf = append(buf, '\n')
	for _, col := range c {
		buf = strconv.AppendInt(buf, int64(col), 10)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// ReadColors parses the format written by WriteColors.
func ReadColors(r io.Reader) (Colors, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		c      Colors
		filled int
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "coloring ") {
			if c != nil {
				return nil, fmt.Errorf("coloring: line %d: second header", lineNo)
			}
			n, err := strconv.Atoi(strings.TrimSpace(line[len("coloring "):]))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("coloring: line %d: bad header", lineNo)
			}
			c = make(Colors, n)
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("coloring: line %d: color before header", lineNo)
		}
		if filled >= len(c) {
			return nil, fmt.Errorf("coloring: line %d: more colors than declared", lineNo)
		}
		v, err := strconv.ParseInt(line, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("coloring: line %d: %v", lineNo, err)
		}
		c[filled] = int32(v)
		filled++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("coloring: missing header")
	}
	if filled != len(c) {
		return nil, fmt.Errorf("coloring: %d colors for %d declared vertices", filled, len(c))
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
