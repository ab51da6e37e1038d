package obs

import "strings"

// Tag-family registry keys. The runtime meters traffic per message-tag family
// (docs/PROTOCOL.md §3) and publishes each family's share beside the
// aggregate, under "<base>.<family>": mpi.sent_bytes and mpi.sent_bytes.color.
// This file is the only place that knows that shape — producers compose with
// FamilyKey, readers split with SplitFamilyKey. A base is "mpi.<metric>": the
// runtime is the only layer with tag families, which is what lets a family
// name carry a dot of its own (none does today; the split allows one) and
// keeps a key like service.tenant.<id>.run_ms from reading as one.

// familyLayer prefixes every base that can carry a family.
const familyLayer = "mpi."

// FamilyKey composes the registry key of one family's share of base; the
// empty family is the aggregate, base itself.
func FamilyKey(base, family string) string {
	if family == "" {
		return base
	}
	return base + "." + family
}

// SplitFamilyKey is FamilyKey's inverse: mpi.sent_bytes.color splits into
// (mpi.sent_bytes, color); a key that carries no family comes back whole,
// with family "".
func SplitFamilyKey(key string) (base, family string) {
	if strings.HasPrefix(key, familyLayer) {
		if i := strings.IndexByte(key[len(familyLayer):], '.'); i >= 0 {
			i += len(familyLayer)
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}

// Traffic is the four traffic counts of one rank or one tag family.
type Traffic struct {
	SentMsgs, SentBytes, RecvMsgs, RecvBytes int64
}

// Add accumulates o into t.
func (t *Traffic) Add(o Traffic) {
	t.SentMsgs += o.SentMsgs
	t.SentBytes += o.SentBytes
	t.RecvMsgs += o.RecvMsgs
	t.RecvBytes += o.RecvBytes
}

// FamilyTraffic is one tag family's traffic, summed over ranks.
type FamilyTraffic struct {
	// Family is the stable family name (match, color, user, runtime).
	Family string
	Traffic
}

// TrafficByRank reads the traffic vecs of one family ("" is the aggregate)
// cell by cell: one row per rank of the world, in rank order.
func (s *MetricsSnapshot) TrafficByRank(family string) []Traffic {
	cell := func(base string, r int) int64 {
		if v := s.PerRank[FamilyKey(base, family)]; r < len(v) {
			return v[r]
		}
		return 0
	}
	out := make([]Traffic, len(s.PerRank[FamilyKey("mpi.sent_msgs", family)]))
	for r := range out {
		out[r] = Traffic{cell("mpi.sent_msgs", r), cell("mpi.sent_bytes", r), cell("mpi.recv_msgs", r), cell("mpi.recv_bytes", r)}
	}
	return out
}

// FamilyTraffic condenses the snapshot's per-family traffic vecs into one row
// per tag family, summed over ranks, sorted by family name. The runtime
// publishes a family's four vecs together, so the mpi.sent_msgs.<family> keys
// name the families. The runtime family meters the reserved-tag collectives
// that the plain mpi.sent_* / mpi.recv_* aggregates exclude (PROTOCOL.md §3).
func (s *MetricsSnapshot) FamilyTraffic() []FamilyTraffic {
	var out []FamilyTraffic
	for _, key := range SortedKeys(s.PerRank) {
		if base, family := SplitFamilyKey(key); base == "mpi.sent_msgs" && family != "" {
			ft := FamilyTraffic{Family: family}
			for _, t := range s.TrafficByRank(family) {
				ft.Add(t)
			}
			out = append(out, ft)
		}
	}
	return out
}
