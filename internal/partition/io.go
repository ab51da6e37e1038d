package partition

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteParts writes a partition in the conventional one-part-id-per-line
// format (the same layout METIS emits), preceded by a "p <P>" header line.
func WriteParts(w io.Writer, p *Partition) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "p %d\n", p.P); err != nil {
		return err
	}
	for _, part := range p.Part {
		if _, err := fmt.Fprintln(bw, part); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadParts parses the format written by WriteParts. Files without the
// "p <P>" header are accepted for METIS compatibility; P is then inferred as
// max(part)+1.
func ReadParts(r io.Reader) (*Partition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows with the longest line, up to 1 MiB
	out := &Partition{}
	declared := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "p ") {
			v, err := strconv.Atoi(strings.TrimSpace(line[2:]))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("partition: line %d: bad part count %q", lineNo, line)
			}
			declared = v
			continue
		}
		v, err := strconv.ParseInt(line, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("partition: line %d: %v", lineNo, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("partition: line %d: negative part %d", lineNo, v)
		}
		out.Part = append(out.Part, int32(v))
		if int(v)+1 > out.P {
			out.P = int(v) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declared >= 0 {
		if out.P > declared {
			return nil, fmt.Errorf("partition: header declares %d parts but id %d appears", declared, out.P-1)
		}
		out.P = declared
	}
	if out.P == 0 {
		out.P = 1
	}
	return out, nil
}

// WriteFile writes a partition to path.
func WriteFile(path string, p *Partition) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteParts(f, p); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads a partition from path.
func ReadFile(path string) (*Partition, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadParts(f)
}
