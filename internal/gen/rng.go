// Package gen produces the synthetic inputs of the evaluation: the 5-point
// grid graphs of Figures 5.1–5.2, circuit-simulation-like graphs standing in
// for the UF G3_circuit matrix of Figures 5.3–5.4, and several irregular
// families (Erdős–Rényi, R-MAT, random geometric, random bipartite) used for
// the Table 1.1 quality study. All generators are deterministic in their
// seed, so every experiment is exactly repeatable, and all of them can emit
// edges with random weights — the paper assigns random edge weights so the
// grid structure "does not play a significant role" in the matching study.
package gen

// RNG is a splitmix64 pseudo-random generator. It is tiny, fast, seedable,
// and — unlike math/rand's global state — safe to shard per rank: each rank
// derives an independent stream with Split, which is how the distributed grid
// generator assigns identical weights to a cross edge from both of its owning
// ranks without communicating.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64 uniformly random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent generator for the given stream id. Two RNGs
// split from the same parent with different ids produce uncorrelated
// sequences; the same id reproduces the same sequence.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(mix(r.state, id))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive bound")
	}
	return int(r.Next() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	FillPerm(r, p)
	return p
}

// FillPerm overwrites p with a random permutation of [0, len(p)), making the
// draws Perm makes, so a caller that visits vertices in a fresh random order
// every pass can reuse one buffer and keep its sequence.
func FillPerm[T ~int | ~int32](r *RNG, p []T) {
	for i := range p {
		p[i] = T(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// mix combines two 64-bit values into a well-distributed seed.
func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// EdgeWeight returns a deterministic pseudo-random weight for the undirected
// edge {u, v} under the given seed, independent of orientation. Distributed
// generators use it so that the two owners of a cross edge agree on its
// weight without exchanging messages. Weights are strictly positive and, with
// probability 1 in practice, pairwise distinct — distinct weights give the
// locally-dominant matching algorithm a unique fixed point, which is what
// makes the parallel matching weight independent of the processor count
// (Section 5.2 of the paper).
func EdgeWeight(seed uint64, u, v int64) float64 {
	if u > v {
		u, v = v, u
	}
	h := mix(mix(seed, uint64(u)), uint64(v))
	return 1 + float64(h>>11)/(1<<53)
}
