// Task scheduling: the paper's §1 motivation "task scheduling and
// concurrency discovery in parallel computing" [12, 24]. Tasks that touch a
// shared resource cannot run simultaneously; a distance-1 coloring of the
// conflict graph partitions the tasks into phases of mutually independent
// work — the classic coloring-driven scheduler of iterative solvers (ILU,
// Gauss–Seidel sweeps).
//
// This example builds the conflict graph of a sparse triangular-solve-like
// workload, colors it in parallel, verifies that every phase is truly
// conflict-free, and reports the schedule length against the lower bound.
package main

import (
	"fmt"
	"log"

	"repro/dmgm"
)

// task i updates row i of a sparse system and conflicts with every task
// whose row shares a nonzero column — the sparsity is a random banded
// pattern, the standard shape in ILU-style scheduling.
func conflictGraph(nTasks int) (*dmgm.Graph, error) {
	colOf := func(t, k int) int { return (t + k*k*7) % nTasks }
	const perTask = 4
	colUsers := make([][]int32, nTasks)
	for t := 0; t < nTasks; t++ {
		for k := 0; k < perTask; k++ {
			c := colOf(t, k)
			colUsers[c] = append(colUsers[c], int32(t))
		}
	}
	var edges []dmgm.Edge
	for _, users := range colUsers {
		for i := 0; i < len(users); i++ {
			for j := i + 1; j < len(users); j++ {
				edges = append(edges, dmgm.Edge{U: users[i], V: users[j], W: 1})
			}
		}
	}
	return dmgm.NewGraph(nTasks, edges)
}

func main() {
	const nTasks = 6000
	g, err := conflictGraph(nTasks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conflict graph: %v (max conflicts per task: %d)\n", g, g.MaxDegree())

	part, err := dmgm.PartitionMultilevel(g, 8, true, 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dmgm.Solve(g, part, dmgm.Job{Algorithm: dmgm.AlgoColor, Params: dmgm.Params{Seed: 11}})
	if err != nil {
		log.Fatal(err)
	}

	// Build the schedule: phase c runs every task with color c.
	phases := make([][]int32, res.Colors)
	for t, c := range res.Coloring {
		phases[c] = append(phases[c], int32(t))
	}
	// Verify phase independence explicitly (beyond the coloring check Solve ran):
	// no two tasks in one phase may share an edge.
	for c, tasks := range phases {
		inPhase := map[int32]bool{}
		for _, t := range tasks {
			inPhase[t] = true
		}
		for _, t := range tasks {
			for _, u := range g.Neighbors(t) {
				if inPhase[u] {
					log.Fatalf("phase %d runs conflicting tasks %d and %d", c, t, u)
				}
			}
		}
	}
	lo, _ := dmgm.ColoringBounds(g)
	fmt.Printf("schedule: %d phases for %d tasks (clique lower bound: %d phases)\n",
		res.Colors, nTasks, lo)
	min, max := nTasks, 0
	for _, tasks := range phases {
		if len(tasks) < min {
			min = len(tasks)
		}
		if len(tasks) > max {
			max = len(tasks)
		}
	}
	fmt.Printf("phase sizes: %d..%d tasks (ideal parallelism %.0fx)\n",
		min, max, float64(nTasks)/float64(res.Colors))
}
