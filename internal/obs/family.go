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

// FamilyTraffic condenses the snapshot's per-family traffic vecs into one row
// per tag family, summed over ranks, sorted by family name. The runtime
// publishes a family's four vecs together, so the mpi.sent_msgs.<family> keys
// name the families. The runtime family meters the reserved-tag collectives
// that the plain mpi.sent_* / mpi.recv_* aggregates exclude (PROTOCOL.md §3).
func (s *MetricsSnapshot) FamilyTraffic() []FamilyTraffic {
	total := func(base, family string) (n int64) {
		for _, v := range s.PerRank[FamilyKey(base, family)] {
			n += v
		}
		return n
	}
	var out []FamilyTraffic
	for _, key := range SortedKeys(s.PerRank) {
		if base, family := SplitFamilyKey(key); base == "mpi.sent_msgs" && family != "" {
			out = append(out, FamilyTraffic{
				Family:   family,
				SentMsgs: total("mpi.sent_msgs", family), SentBytes: total("mpi.sent_bytes", family),
				RecvMsgs: total("mpi.recv_msgs", family), RecvBytes: total("mpi.recv_bytes", family),
			})
		}
	}
	return out
}
