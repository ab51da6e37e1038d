package launch

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/mpi/transport"
)

// TransportFlags is the standard transport flag block shared by the cmd/
// binaries: which substrate carries the ranks, and — for the tcp substrate —
// this process's rank and how the job rendezvouses.
type TransportFlags struct {
	Transport string
	Rank      int
	Registry  string
	Peers     string
	Bind      string
	Launch    bool
}

// RegisterFlags installs the transport flag block on fs.
func RegisterFlags(fs *flag.FlagSet) *TransportFlags {
	f := &TransportFlags{}
	fs.StringVar(&f.Transport, "transport", "inproc", "rank substrate: inproc (goroutines in this process) | tcp (one process per rank)")
	fs.IntVar(&f.Rank, "rank", 0, "this process's rank in the tcp job")
	fs.StringVar(&f.Registry, "registry", "", "rank-0 rendezvous address host:port (tcp)")
	fs.StringVar(&f.Peers, "peers", "", "comma-separated per-rank listen addresses (tcp; overrides -registry)")
	fs.StringVar(&f.Bind, "bind", "", "data-listener bind address for this rank (tcp registry mode; default 127.0.0.1:0)")
	fs.BoolVar(&f.Launch, "launch", false, "spawn -p local tcp worker processes of this binary and wait for them")
	return f
}

// Remote reports whether the flags select a wire transport, i.e. whether
// this process hosts only its own rank.
func (f *TransportFlags) Remote() bool { return f.Transport != "inproc" }

// World builds the mpi.World the flags describe: the whole job in-process by
// default, or one tcp endpoint of a multi-process job.
func (f *TransportFlags) World(p int, opts ...mpi.Option) (*mpi.World, error) {
	switch f.Transport {
	case "inproc":
		return mpi.NewWorld(p, opts...)
	case "tcp":
		topt := transport.TCPOptions{Rank: f.Rank, Size: p, Registry: f.Registry, Bind: f.Bind}
		if f.Peers != "" {
			topt.Peers = strings.Split(f.Peers, ",")
		}
		ep, err := transport.NewTCP(topt)
		if err != nil {
			return nil, err
		}
		return mpi.NewWorld(p, append([]mpi.Option{mpi.WithTransport(ep)}, opts...)...)
	default:
		return nil, fmt.Errorf("launch: unknown transport %q (want inproc or tcp)", f.Transport)
	}
}
