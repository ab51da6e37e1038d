package launch

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/dmgm"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"
)

// CLI is the main() that dmgm-match and dmgm-color share around the one thing
// each decides for itself — its sequential algorithms, its dmgm.Job and how
// it prints a result: the flags both spell the same way, the -launch
// supervisor, reading the graph, partitioning it by name, the observer +
// world + live endpoint of a distributed run, the trace / OTLP write-out, and
// the quiet exit of a tcp worker that does not host rank 0.
type CLI struct {
	// Name prefixes diagnostics ("dmgm-match: ...").
	Name           string
	Stdout, Stderr io.Writer
	// Flags is the binary's flag set; the binary adds its own flags to it
	// before calling Main.
	Flags     *flag.FlagSet
	Transport *TransportFlags
	Obs       *obs.Flags

	In          *string
	P           *int
	Partitioner *string
	Seed        *uint64
	Out         *string
	JSON        *bool

	readStart, partStart time.Time
}

// NewCLI builds the shared flag set of one binary.
func NewCLI(name string, stdout, stderr io.Writer) *CLI {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &CLI{
		Name: name, Stdout: stdout, Stderr: stderr,
		Flags:       fs,
		Transport:   RegisterFlags(fs),
		Obs:         obs.RegisterFlags(fs),
		In:          fs.String("in", "", "input graph path (required)"),
		P:           fs.Int("p", 1, "ranks for the distributed run (1 = sequential)"),
		Partitioner: fs.String("partition", "multilevel", "partitioner for p > 1: multilevel | bfs | block | random"),
		Seed:        fs.Uint64("seed", 1, "seed"),
		Out:         fs.String("o", "", "write the result to this file (verifiable with dmgm-verify)"),
		JSON:        fs.Bool("json", false, "print the result summary as one JSON object on stdout (progress goes to stderr)"),
	}
}

// usageError marks a bad command line: exit status 2, not 1.
type usageError struct{ error }

// Usagef builds a usage error.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Main parses args, does everything that precedes reading the graph — the
// usage checks and the -launch supervisor (which never reaches body: it
// spawns the workers, waits, and merges their trace shards) — then runs body,
// and turns the outcome into the process exit status.
func (c *CLI) Main(args []string, body func() error) int {
	if err := c.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *c.In == "" {
		return c.exit(Usagef("-in is required"))
	}
	if c.Transport.Launch {
		if *c.P <= 1 {
			return c.exit(Usagef("-launch needs -p > 1"))
		}
		if c.Obs.OTLP != "" {
			// Resolve the run id before spawning workers: they inherit it via
			// the environment, so every shard exports into one OTLP trace.
			c.Obs.RunID()
		}
		code := Fleet(os.Args[0], FilterArgs(args, "launch"), *c.P)
		if err := c.Obs.Merge(*c.P); err != nil {
			c.exit(err)
			if code == 0 {
				code = 1
			}
		}
		return code
	}
	if c.Transport.Remote() && *c.P <= 1 {
		return c.exit(Usagef("-transport tcp needs -p > 1"))
	}
	return c.exit(body())
}

// exit reports err, if any, and returns the exit status it stands for.
func (c *CLI) exit(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
	var usage usageError
	if errors.As(err, &usage) {
		return 2
	}
	return 1
}

// Info prints narration: to stdout normally, to stderr under -json, where
// stdout carries exactly one JSON object so `dmgm-match -json | jq` works.
func (c *CLI) Info(format string, args ...any) {
	w := c.Stdout
	if *c.JSON {
		w = c.Stderr
	}
	fmt.Fprintf(w, format, args...)
}

// Report prints a run's summary on stdout: record as one JSON object under
// -json, the text lines otherwise.
func (c *CLI) Report(record any, text string) error {
	if *c.JSON {
		return json.NewEncoder(c.Stdout).Encode(record)
	}
	_, err := io.WriteString(c.Stdout, text)
	return err
}

// WriteOut saves a result's text serialization when -o was given.
func (c *CLI) WriteOut(text string) error {
	if *c.Out == "" {
		return nil
	}
	return os.WriteFile(*c.Out, []byte(text), 0o666)
}

// ReadGraph reads the -in graph and narrates its summary.
func (c *CLI) ReadGraph() (*graph.Graph, error) {
	c.readStart = time.Now()
	g, err := graph.ReadFile(*c.In)
	if err != nil {
		return nil, err
	}
	c.Info("input: %s\n", graph.Summarize(g))
	return g, nil
}

// Partition builds the -p-way partition with the -partition partitioner, or
// loads partFile (written by dmgm-part), which then also decides -p.
func (c *CLI) Partition(g *graph.Graph, partFile string, opt partition.MultilevelOptions) (*partition.Partition, error) {
	c.partStart = time.Now()
	var part *partition.Partition
	var err error
	if partFile != "" {
		if part, err = partition.ReadFile(partFile); err == nil {
			err = part.Validate(g)
		}
		if err == nil {
			*c.P = part.P
		}
	} else {
		var build partition.Partitioner
		if build, err = partition.ByName(*c.Partitioner); err == nil {
			part, err = build(g, *c.P, opt)
		}
	}
	if err != nil {
		return nil, err
	}
	c.Info("partition: %s\n", partition.Measure(g, part))
	return part, nil
}

// Run executes job over the world the transport flags describe, with the
// observer the observability flags describe, and writes the trace and OTLP
// outputs. On a tcp worker that does not host rank 0 the result is
// nil: the gathered result lives on rank 0's process, this one has narrated
// its completion and has nothing more to print.
func (c *CLI) Run(g *graph.Graph, part *partition.Partition, job dmgm.Job) (*dmgm.JobResult, error) {
	rank, remote := c.Transport.Rank, c.Transport.Remote()
	obsr := c.Obs.NewObserver(part.P)
	// The observer is sized by the partition, so the driver-side phases that
	// preceded it are recorded retroactively.
	obsr.Driver().Observe("driver.read_graph", c.readStart, int64(g.NumVertices()))
	obsr.Driver().Observe("driver.partition", c.partStart, int64(part.P))
	w, err := c.Transport.World(part.P, mpi.WithDeadline(10*time.Minute), mpi.WithObserver(obsr))
	if err != nil {
		return nil, err
	}
	if c.Obs.HTTP != "" {
		addr, err := obs.ServeLive(obs.OffsetAddr(c.Obs.HTTP, rank, remote), w.LiveSnapshot)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(c.Stderr, "live: http://%s/snapshot (watch with: dmgm-trace -watch %s)\n", addr, addr)
	}
	start := time.Now()
	placement, err := dmgm.Place(g, part)
	if err != nil {
		return nil, err
	}
	res, err := dmgm.RunJob(w, g, placement, job)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if err := c.Obs.Write(obsr, w.LocalRanks(), rank, remote); err != nil {
		return nil, err
	}
	if err := c.Obs.ExportOTLP(obsr, w.LocalRanks(), part.P); err != nil {
		// Export is best-effort: warn, never fail the run.
		fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
	}
	if res == nil {
		c.Info("rank %d: done in %v\n", rank, elapsed)
	}
	return res, nil
}
