package dgraph

import (
	"reflect"
	"strings"
	"testing"
)

// share builds just what Gather reads of a DistGraph: the owned vertices'
// global ids and the global vertex count.
func share(globalN int64, owned ...int64) *DistGraph {
	return &DistGraph{GlobalN: globalN, NLocal: len(owned), GlobalID: owned}
}

func TestGather(t *testing.T) {
	two := []*DistGraph{share(5, 0, 2, 4), share(5, 1, 3)}
	for _, tc := range []struct {
		name    string
		shares  []*DistGraph
		local   [][]int64
		want    []int32
		wantErr string
	}{
		{name: "exact cover", shares: two, local: [][]int64{{10, 12, 14}, {11, -1}}, want: []int32{10, 11, 12, -1, 14}},
		{name: "no shares", shares: nil, local: nil, wantErr: "0 shares"},
		{name: "fewer results than shares", shares: two, local: [][]int64{{10, 12, 14}}, wantErr: "2 shares, 1 results"},
		{name: "nil result", shares: two, local: [][]int64{{10, 12, 14}, nil}, wantErr: "rank 1 has no result"},
		{name: "short result", shares: two, local: [][]int64{{10, 12}, {11, 13}}, wantErr: "rank 0 result covers 2 of 3"},
		{name: "vertex owned twice", shares: []*DistGraph{share(5, 0, 2, 4), share(5, 2, 3)}, local: [][]int64{{1, 1, 1}, {1, 1}}, wantErr: "vertex 2 owned by two ranks"},
		{name: "vertex unowned", shares: []*DistGraph{share(5, 0, 2, 4), share(5, 3)}, local: [][]int64{{1, 1, 1}, {1}}, wantErr: "cover 4 of 5"},
		{name: "vertex past the graph", shares: []*DistGraph{share(5, 0, 2, 7), share(5, 1, 3)}, local: [][]int64{{1, 1, 1}, {1, 1}}, wantErr: "rank 0 owns vertex 7 of 5"},
		{name: "negative vertex", shares: []*DistGraph{share(5, 0, 2, 4), share(5, 1, -3)}, local: [][]int64{{1, 1, 1}, {1, 1}}, wantErr: "rank 1 owns vertex -3 of 5"},
		{name: "shares disagree on the graph", shares: []*DistGraph{share(5, 0, 2, 4), share(6, 1, 3)}, local: [][]int64{{1, 1, 1}, {1, 1}}, wantErr: "rank 1 share has 6 vertices, rank 0's 5"},
		{name: "negative vertex count", shares: []*DistGraph{share(-1)}, local: [][]int64{{}}, wantErr: "rank 0 share has -1 vertices"},
		{name: "beyond int32", shares: []*DistGraph{share(1 << 31)}, local: [][]int64{{}}, wantErr: "too large"},
	} {
		got, err := Gather[int64, int32](tc.shares, tc.local)
		switch {
		case tc.wantErr == "" && (err != nil || !reflect.DeepEqual(got, tc.want)):
			t.Errorf("%s: got %v, %v; want %v", tc.name, got, err, tc.want)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
