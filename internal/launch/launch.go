// Package launch spawns and supervises the worker processes of a local
// multi-process run: the `-launch` mode of the cmd/ binaries re-executes the
// running binary once per rank with the TCP transport flags appended, wires
// the workers together through a freshly reserved rank-0 registry port,
// prefixes their output by rank, and propagates the first non-zero exit
// code. It is the repository's stand-in for `mpirun -np N` on one host.
package launch

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
)

// ReserveLoopbackPort binds an ephemeral localhost port and immediately
// releases it, returning the address for rank 0 to re-bind as its registry.
// The window between release and re-bind is racy in principle; for a
// single-host launcher grabbing ephemeral ports it is harmless in practice,
// and a collision surfaces as a clean bind error, not silent misbehavior.
func ReserveLoopbackPort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// FilterArgs returns args with the named boolean flags removed (any of the
// -name, --name, -name=value spellings). Used to strip `-launch` from the
// inherited command line so workers do not recurse.
func FilterArgs(args []string, dropBool ...string) []string {
	drop := map[string]bool{}
	for _, d := range dropBool {
		drop[d] = true
	}
	out := make([]string, 0, len(args))
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			name := strings.TrimLeft(a, "-")
			if i := strings.IndexByte(name, '='); i >= 0 {
				name = name[:i]
			}
			if drop[name] {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// Fleet spawns n copies of bin, appending `-transport tcp -rank i -registry
// <addr>` to baseArgs for each rank i, streams their stdout/stderr with a
// `[rank i]` prefix, waits for all of them, and returns the first non-zero
// exit code (0 when every worker succeeded). Later duplicate flags win under
// Go's flag package, so appending is enough to override inherited values.
func Fleet(bin string, baseArgs []string, n int) int {
	registry, err := ReserveLoopbackPort()
	if err != nil {
		fmt.Fprintf(os.Stderr, "launch: reserving registry port: %v\n", err)
		return 1
	}
	codes := make([]int, n)
	var outMu sync.Mutex // one worker line at a time
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		args := append(append([]string(nil), baseArgs...),
			"-transport", "tcp", "-rank", strconv.Itoa(i), "-registry", registry)
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err == nil {
			var stderr io.ReadCloser
			stderr, err = cmd.StderrPipe()
			if err == nil {
				err = cmd.Start()
			}
			if err == nil {
				wg.Add(1)
				go superviseWorker(&wg, &outMu, i, cmd, stdout, stderr, &codes[i])
				continue
			}
		}
		fmt.Fprintf(os.Stderr, "launch: starting rank %d: %v\n", i, err)
		codes[i] = 1
	}
	wg.Wait()
	for _, c := range codes {
		if c != 0 {
			return c
		}
	}
	return 0
}

func superviseWorker(wg *sync.WaitGroup, outMu *sync.Mutex, rank int, cmd *exec.Cmd, stdout, stderr io.Reader, code *int) {
	defer wg.Done()
	var streams sync.WaitGroup
	stream := func(r io.Reader, w io.Writer) {
		defer streams.Done()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			outMu.Lock()
			fmt.Fprintf(w, "[rank %d] %s\n", rank, sc.Text())
			outMu.Unlock()
		}
	}
	streams.Add(2)
	go stream(stdout, os.Stdout)
	go stream(stderr, os.Stderr)
	streams.Wait() // drain the pipes before Wait closes them
	if err := cmd.Wait(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			*code = ee.ExitCode()
		} else {
			*code = 1
		}
	}
}
