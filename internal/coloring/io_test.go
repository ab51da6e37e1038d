package coloring

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// fmtColors is the rendering WriteColors had before it stopped going through
// fmt, line for line; the format is pinned against it.
func fmtColors(c Colors) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "coloring %d\n", len(c))
	for _, col := range c {
		fmt.Fprintln(&sb, col)
	}
	return sb.String()
}

func TestWriteColorsPinnedToFmtRendering(t *testing.T) {
	// Colors 0..1199 cover one, two, three and four digits; four and more
	// outgrow the buffer's initial size.
	ramp := make(Colors, 1200)
	for v := range ramp {
		ramp[v] = int32(v)
	}
	for name, c := range map[string]Colors{
		"nil":          nil,
		"empty":        {},
		"one color":    make(Colors, 1000),
		"two digits":   {9, 10, 11, 99},
		"three digits": {99, 100, 101, 999, 1000},
		"ramp":         ramp,
		"max int32":    {math.MaxInt32, 0, math.MaxInt32},
		"uncolored":    {-1, 0, 1},
	} {
		var buf bytes.Buffer
		if err := WriteColors(&buf, c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := buf.String(), fmtColors(c); got != want {
			t.Errorf("%s: WriteColors wrote %d bytes %.60q, fmt renders %d bytes %.60q", name, len(got), got, len(want), want)
		}
		back, err := ReadColors(&buf)
		if err != nil {
			t.Fatalf("%s: ReadColors: %v", name, err)
		}
		if len(back) != len(c) {
			t.Fatalf("%s: read back %d vertices, wrote %d", name, len(back), len(c))
		}
		for v := range c {
			if back[v] != c[v] {
				t.Fatalf("%s: vertex %d color %d after round trip, want %d", name, v, back[v], c[v])
			}
		}
	}
}

// failWriter refuses everything, as a closed connection would.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteColorsReportsWriteError(t *testing.T) {
	if err := WriteColors(failWriter{}, Colors{0, 1}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("WriteColors on a failing writer returned %v", err)
	}
}
