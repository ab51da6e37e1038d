package coloring

// The hybrid path implements the outlook of the paper's Section 6:
// "implementations that harness the full potential of such architectures
// will need to rely on the use of hybrid distributed-memory and
// shared-memory programming, for example, via the combined use of MPI and
// OpenMP". Here each rank (the MPI level) colors its interior vertices with
// several worker goroutines (the OpenMP level) using the shared-memory
// speculative scheme, and only the boundary enters the distributed rounds.
// Interior vertices have no ghost neighbors, so the threaded phase needs no
// communication, and boundary vertices colored afterwards respect the
// interior colors — the "interior strictly before boundary" order of the
// framework with the interior leg parallelized.

// colorInteriorThreaded colors every interior owned vertex using `threads`
// workers; boundary vertices stay uncolored. Safe because interior vertices
// only neighbor owned vertices, so every index the workers touch is in
// colors.
func (k *d1Kernel) colorInteriorThreaded(threads int) {
	interior := k.appendWhere(nil, false)
	if len(interior) == 0 {
		return
	}
	speculateShared(interior, min(threads, len(interior)), k.maxColors, k.colors, k.d.Xadj, k.d.Adj, k.d.GlobalID, k.opt.Seed)
}
