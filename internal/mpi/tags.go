package mpi

import "fmt"

// Message-tag space and tag families.
//
// The runtime's tag-space contract (documented in docs/PROTOCOL.md) is:
//
//   - Non-negative tags belong to user code. Comm.Send rejects negative tags,
//     so user and runtime traffic can never collide.
//   - Negative tags are reserved for the runtime: its own collectives (see
//     collectives.go), and below tagExchange the wire tags of
//     Comm.NeighborExchange, one per user tag (see exchangeTag).
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
// families, which leaves out the runtime family (the collectives). An
// exchange is the algorithm's own traffic: its wire tags map to the user
// tag's family.
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
	// FamilyRuntime is the collectives' reserved-tag traffic on every
	// backend, excluded from the aggregate Stats counters so that an
	// algorithm's message counts are those of its own tags alone.
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

// tagExchange is the wire tag of a NeighborExchange on user tag 0; tag t
// travels as tagExchange - t.
const tagExchange = -8

// exchangeTag is the wire tag of a NeighborExchange on user tag tag. It
// panics on a negative tag, and on one so large that the wire tag would wrap.
func exchangeTag(tag int) int {
	wire := tagExchange - tag
	if wire > tagExchange {
		panic(fmt.Sprintf("mpi: exchange on tag %d; it must be a non-negative user tag", tag))
	}
	return wire
}

// FamilyOf classifies a message tag into its family. The mapping is total:
// every int maps to exactly one family, and an exchange's wire tag maps to
// the family of the user tag it carries.
func FamilyOf(tag int) TagFamily {
	switch {
	case tag <= tagExchange:
		return FamilyOf(tagExchange - tag)
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
