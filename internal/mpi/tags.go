package mpi

// Message-tag space and tag families.
//
// The runtime's tag-space contract (documented in docs/PROTOCOL.md) is:
//
//   - Non-negative tags belong to user code. Comm.Send rejects negative tags,
//     so user and runtime traffic can never collide.
//   - Negative tags are reserved for the runtime's own over-the-wire
//     collectives (see collectives.go).
//
// Within the user space the algorithms of this repository carve out fixed
// ranges, one per protocol phase, so that every byte on the wire can be
// attributed to the phase that produced it:
//
//	[100,110)  matching bundles (REQUEST / SUCCEEDED / FAILED records)
//	[200,300)  color notices (FIAB / FIAC / NEW variants share the range)
//
// Every tag maps to exactly one TagFamily via FamilyOf; traffic counters are
// kept per family (see Stats) and the aggregates are the sum of the user
// families — the runtime family meters reserved-tag traffic that the
// aggregates deliberately exclude, so that algorithm message counts stay
// identical across transport backends.
const (
	// TagMatchBase is the first tag of the matching-bundle range.
	TagMatchBase = 100
	// TagColorBase is the first tag of the color-notice range.
	TagColorBase = 200
	// TagColorEnd is one past the last color-notice tag.
	TagColorEnd = 300
)

// TagFamily names one protocol phase of the wire traffic. Families partition
// the whole tag space: every message, user or runtime, belongs to exactly
// one.
type TagFamily int

const (
	// FamilyMatch is the matching protocol's bundle traffic: REQUEST,
	// SUCCEEDED and FAILED records aggregated per destination (tag 100).
	FamilyMatch TagFamily = iota
	// FamilyColor is the coloring framework's color-notice traffic, shared
	// by the FIAB, FIAC and NEW communication variants (tag 200).
	FamilyColor
	// FamilyUser is any other non-negative tag: application traffic outside
	// the ranges the built-in algorithms reserve.
	FamilyUser
	// FamilyRuntime is the reserved negative-tag traffic: the over-the-wire
	// barrier, allreduce and allgather of remote transports. It is metered
	// here but excluded from the aggregate Stats counters, so algorithm
	// message counts are identical across backends.
	FamilyRuntime
	// NumTagFamilies is the number of tag families (array sizing).
	NumTagFamilies
)

var tagFamilyNames = [NumTagFamilies]string{
	FamilyMatch:   "match",
	FamilyColor:   "color",
	FamilyUser:    "user",
	FamilyRuntime: "runtime",
}

// String returns the family's stable name, used as a metric-name suffix
// (mpi.sent_bytes.match) and in the live per-tag traffic views.
func (f TagFamily) String() string {
	if f < 0 || f >= NumTagFamilies {
		return "invalid"
	}
	return tagFamilyNames[f]
}

// FamilyOf classifies a message tag into its family. The mapping is total:
// every int maps to exactly one family.
func FamilyOf(tag int) TagFamily {
	switch {
	case tag < 0:
		return FamilyRuntime
	case tag >= TagMatchBase && tag < TagMatchBase+10:
		return FamilyMatch
	case tag >= TagColorBase && tag < TagColorEnd:
		return FamilyColor
	default:
		return FamilyUser
	}
}
