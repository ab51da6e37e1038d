// Package docs holds repository documentation checks. TestMarkdownLinks is
// an offline link checker over every *.md file: relative links must point at
// files that exist and fragment anchors at headings that exist. It runs in CI
// (the docs job) so documentation cannot silently drift from the tree — no
// network access, external URLs are not followed. TestDgraphIsBelowTheRuntime,
// TestMatchingHasNoMaps and TestColoringHasNoMaps hold the tree to claims
// DESIGN.md makes; TestSignalCatalogue and TestObservabilityWrittenOnce hold
// it to docs/OBSERVABILITY.md, TestEvaluationWrittenOnce to DESIGN.md's expt
// row, TestSharesAreCutInOnePlace and TestFacadeHasOneRunner to its §9,
// TestRunPatternsNameTests holds CI's and the verify skill's -run patterns to
// the tests they name, and TestDaemonFlagsHaveReaders holds dmgm-serve's flags
// to docs/OPERATIONS.md's flag reference.
package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// markdownFiles lists every tracked *.md, skipping dot-directories.
func markdownFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

var (
	linkRe    = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.*)$`)
	// anchorStrip removes characters GitHub drops when slugging a heading.
	anchorStrip = regexp.MustCompile(`[^\p{L}\p{N} _-]`)
)

// slug approximates GitHub's heading-to-anchor transformation.
func slug(heading string) string {
	s := strings.ToLower(strings.TrimSpace(heading))
	// Inline code and emphasis markers vanish before slugging.
	s = strings.NewReplacer("`", "", "*", "", "_", "_").Replace(s)
	s = anchorStrip.ReplaceAllString(s, "")
	return strings.ReplaceAll(s, " ", "-")
}

// anchors returns the set of heading anchors defined in a markdown body.
func anchors(body string) map[string]bool {
	out := map[string]bool{}
	for _, m := range headingRe.FindAllStringSubmatch(stripFences(body), -1) {
		out[slug(m[1])] = true
	}
	return out
}

// stripFences blanks ``` code blocks so their contents are neither links nor
// headings.
func stripFences(body string) string {
	lines := strings.Split(body, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	bodies := map[string]string{}
	for _, f := range markdownFiles(t, root) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		bodies[f] = string(b)
	}
	for file, body := range bodies {
		rel, _ := filepath.Rel(root, file)
		for _, m := range linkRe.FindAllStringSubmatch(stripFences(body), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external: not checked offline
			}
			path, frag, _ := strings.Cut(target, "#")
			dest := file
			if path != "" {
				dest = filepath.Join(filepath.Dir(file), filepath.FromSlash(path))
				info, err := os.Stat(dest)
				if err != nil {
					t.Errorf("%s: broken link %q: %v", rel, target, err)
					continue
				}
				if info.IsDir() {
					continue // directory links have no anchors to check
				}
			}
			if frag == "" {
				continue
			}
			destBody, ok := bodies[dest]
			if !ok {
				if strings.HasSuffix(dest, ".md") {
					t.Errorf("%s: link %q has a fragment but %s was not scanned", rel, target, dest)
				}
				continue // anchors into non-markdown files are not checked
			}
			if !anchors(destBody)[frag] {
				t.Errorf("%s: link %q: no heading in %s slugs to %q", rel, target, filepath.Base(dest), frag)
			}
		}
	}
}

// TestDgraphIsBelowTheRuntime pins the layering DESIGN.md's module table
// describes: internal/dgraph is a data structure built from (graph,
// partition) and knows nothing of the message-passing runtime — the
// protocols that ship ghost values live in the kernels, over internal/mpi.
func TestDgraphIsBelowTheRuntime(t *testing.T) {
	for name, file := range nonTestFiles(t, "dgraph", parser.ImportsOnly) {
		for _, imp := range file.Imports {
			if imp.Path.Value == `"repro/internal/mpi"` {
				t.Errorf("%s imports internal/mpi", name)
			}
		}
	}
}

// TestMatchingHasNoMaps pins the rule DESIGN.md states for the matching
// kernels: every per-vertex and per-round structure is a dense slice, so
// nothing a kernel sends or decides can depend on a map's iteration order.
func TestMatchingHasNoMaps(t *testing.T) {
	for name, file := range nonTestFiles(t, "matching", 0) {
		ast.Inspect(file, func(n ast.Node) bool {
			if _, ok := n.(*ast.MapType); ok {
				t.Errorf("%s declares a map type", name)
			}
			return true
		})
	}
}

// TestColoringHasNoMaps pins the same rule for the coloring kernels: the
// distance-2 kernel's forbidden colors and re-color set are dense arrays
// like every other per-vertex structure, so no color a kernel picks can
// depend on a map's iteration order.
func TestColoringHasNoMaps(t *testing.T) {
	for name, file := range nonTestFiles(t, "coloring", 0) {
		ast.Inspect(file, func(n ast.Node) bool {
			if _, ok := n.(*ast.MapType); ok {
				t.Errorf("coloring/%s declares a map type", name)
			}
			return true
		})
	}
}

// TestPartitionHasNoMaps pins what DESIGN.md says of internal/partition: its
// working memory is dense slices, so no assignment can depend on a map's
// iteration order, and coarsening contracts CSR to CSR — no partitioner
// builds a []graph.Edge or calls graph.BuildUndirected (whose own ordering is
// a counting sort: neither it nor this package imports sort).
func TestPartitionHasNoMaps(t *testing.T) {
	for name, file := range nonTestFiles(t, "partition", 0) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				t.Errorf("partition/%s declares a map type", name)
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "graph" && (n.Sel.Name == "Edge" || n.Sel.Name == "BuildUndirected") {
					t.Errorf("partition/%s uses graph.%s: an edge list where a CSR pass will do", name, n.Sel.Name)
				}
			}
			return true
		})
		for _, imp := range file.Imports {
			if imp.Path.Value == `"sort"` {
				t.Errorf("partition/%s imports sort", name)
			}
		}
	}
	for _, imp := range nonTestFiles(t, "graph", parser.ImportsOnly)["builder.go"].Imports {
		if imp.Path.Value == `"sort"` || imp.Path.Value == `"slices"` {
			t.Errorf("graph/builder.go imports %s: BuildUndirected orders edges by counting", imp.Path.Value)
		}
	}
}

// TestRecordsAreAddressedPairLocally pins what DESIGN.md and PROTOCOL.md §4
// say of the wire: a record names an edge or a vertex by its index in the
// pair table the two ranks share (internal/dgraph/pairs.go), which is dense
// arrays all the way down — so neither kernel package resolves a global id
// (LocalOf) anywhere, and internal/dgraph declares no map.
func TestRecordsAreAddressedPairLocally(t *testing.T) {
	for name, file := range nonTestFiles(t, "dgraph", 0) {
		ast.Inspect(file, func(n ast.Node) bool {
			if _, ok := n.(*ast.MapType); ok {
				t.Errorf("dgraph/%s declares a map type", name)
			}
			return true
		})
	}
	for _, pkg := range []string{"matching", "coloring"} {
		for name, file := range nonTestFiles(t, pkg, 0) {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "LocalOf" {
					t.Errorf("%s/%s resolves a global id with LocalOf", pkg, name)
				}
				return true
			})
		}
	}
}

// TestRuntimeWaitPoints pins two structural facts DESIGN.md and the ROADMAP's
// cancellation item state about internal/mpi (its transports aside): a rank
// blocks on a condition variable in exactly two functions — mailbox.get for a
// message, barrier.await for its peers — and whether the world hosts every
// rank is consulted in three, so no collective forks per transport.
func TestRuntimeWaitPoints(t *testing.T) {
	waits, local := map[string]bool{}, map[string]bool{}
	for _, file := range nonTestFiles(t, "mpi", 0) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			written := map[ast.Expr]bool{} // NewWorld sets allLocal; only reads count
			ast.Inspect(fn, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						written[lhs] = true
					}
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if on, ok := sel.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && on.Sel.Name == "cond" {
					waits[fn.Name.Name] = true
				}
				if sel.Sel.Name == "allLocal" && !written[sel] {
					local[fn.Name.Name] = true
				}
				return true
			})
		}
	}
	if len(waits) != 2 || !waits["get"] || !waits["await"] {
		t.Errorf("sync.Cond waits in %v, want exactly mailbox.get and barrier.await", waits)
	}
	if len(local) > 3 || !local["Barrier"] || !local["exchange"] || !local["Reset"] {
		t.Errorf("allLocal read in %v, want Barrier, exchange and Reset only", local)
	}
}

// signalCalls maps the methods that take a signal's name as their first
// argument to the catalogue kind they emit, with the argument count that
// tells the tracer's Observe(name, start, n) from a histogram's Observe(v).
var signalCalls = map[string]struct {
	kind string
	args int
}{
	"Counter": {"counter", 1}, "Gauge": {"gauge", 1}, "Vec": {"vec", 2}, "Histogram": {"histogram", 2},
	"Begin": {"span", 1}, "BeginUnder": {"span", 2}, "BeginDetail": {"detail span", 1},
	"Observe": {"span", 3}, "ObserveUnder": {"span", 4}, "ObserveSpan": {"span", 5},
	"stage": {"span", 2}, "record": {"span", 5},
}

// signalNames evaluates the name argument of a signal call to the catalogue
// names it can produce. String literals and constants are themselves, +
// concatenates, a local variable is whatever the enclosing function assigns
// it, obs.FamilyKey(base, f) is base and base.<family>, and anything only
// known at run time (a tenant's name) reads <id>.
func signalNames(e ast.Expr, fn *ast.FuncDecl, consts map[string]string) []string {
	switch e := e.(type) {
	case *ast.BasicLit:
		if s, err := strconv.Unquote(e.Value); err == nil && e.Kind == token.STRING {
			return []string{s}
		}
	case *ast.ParenExpr:
		return signalNames(e.X, fn, consts)
	case *ast.BinaryExpr:
		var out []string
		for _, l := range signalNames(e.X, fn, consts) {
			for _, r := range signalNames(e.Y, fn, consts) {
				out = append(out, l+r)
			}
		}
		return out
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "FamilyKey" && len(e.Args) == 2 {
			var out []string
			for _, base := range signalNames(e.Args[0], fn, consts) {
				out = append(out, base, base+".<family>")
			}
			return out
		}
	case *ast.Ident:
		if v, ok := consts[e.Name]; ok {
			return []string{v}
		}
		var out []string
		if fn != nil {
			ast.Inspect(fn, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
					for i, lhs := range as.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name == e.Name {
							out = append(out, signalNames(as.Rhs[i], fn, consts)...)
						}
					}
				}
				return true
			})
		}
		if len(out) > 0 {
			return out
		}
	}
	return []string{"<id>"}
}

// TestSignalCatalogue holds docs/OBSERVABILITY.md's catalogue to the code in
// both directions: every metric and span name the non-test code can emit has
// a row of the right kind, every row is emitted somewhere, and every row says
// where it is emitted and who reads it. A signal without a reader does not
// get a row; it gets deleted. A test that pins the name (TestObservableSurface's
// list) is not a reader: it would pin a signal nobody reads just as well.
func TestSignalCatalogue(t *testing.T) {
	emitted := map[string]string{} // name -> kind
	where := map[string]string{}
	byDir := map[string]map[string]*ast.File{}
	for name, file := range repoFiles(t, false) {
		dir := path.Dir(name)
		if byDir[dir] == nil {
			byDir[dir] = map[string]*ast.File{}
		}
		byDir[dir][name] = file
	}
	for _, files := range byDir {
		consts := map[string]string{} // the package's string constants
		for _, file := range files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
					for _, spec := range gd.Specs {
						vs := spec.(*ast.ValueSpec)
						for i, id := range vs.Names {
							if i < len(vs.Values) {
								if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
									consts[id.Name], _ = strconv.Unquote(lit.Value)
								}
							}
						}
					}
				}
			}
		}
		for name, file := range files {
			for _, decl := range file.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					sig, known := signalCalls[sel.Sel.Name]
					if !known || len(call.Args) != sig.args {
						return true
					}
					for _, sn := range signalNames(call.Args[0], fn, consts) {
						if sn == "<id>" {
							// A signal method may hand its own name parameter
							// on (Observe -> ObserveSpan, stage -> BeginUnder);
							// anything else hides a name from this test.
							forwards := false
							if fn != nil {
								_, forwards = signalCalls[fn.Name.Name]
							}
							if !forwards {
								t.Errorf("%s: %s(...) takes a name this test cannot read; pass a literal or a constant", name, sel.Sel.Name)
							}
							continue
						}
						if prev, ok := emitted[sn]; ok && prev != sig.kind {
							t.Errorf("%s: %q emitted as %s here and as %s in %s", name, sn, sig.kind, prev, where[sn])
						}
						emitted[sn], where[sn] = sig.kind, name
					}
					return true
				})
			}
		}
	}

	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| ([^|]+) \\| ([^|]+) \\| ([^|]+) \\| ([^|]+) \\|$")
	listed := map[string]bool{}
	for _, m := range rowRe.FindAllStringSubmatch(string(doc), -1) {
		name, kind, emitter, reader := m[1], strings.TrimSpace(m[2]), strings.TrimSpace(m[4]), strings.TrimSpace(m[5])
		if listed[name] {
			t.Errorf("catalogue lists %q twice", name)
		}
		listed[name] = true
		switch got, ok := emitted[name]; {
		case !ok:
			t.Errorf("catalogue row %q: no non-test code emits it; delete the row", name)
		case got != kind:
			t.Errorf("catalogue row %q says %s, %s emits a %s", name, kind, where[name], got)
		}
		if emitter == "" || reader == "" || strings.EqualFold(reader, "nobody") || reader == "-" || reader == "—" {
			t.Errorf("catalogue row %q must name its emitter and a reader (got %q, %q)", name, emitter, reader)
		}
		if strings.HasPrefix(strings.ToLower(reader), "name pin") {
			t.Errorf("catalogue row %q: a name pin is not a reader (%q); name who reads it, or delete the signal", name, reader)
		}
	}
	var missing []string
	for name := range emitted {
		if !listed[name] {
			missing = append(missing, name+" ("+emitted[name]+", "+where[name]+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("emitted but not in docs/OBSERVABILITY.md's catalogue: %s — add a row naming who reads it, or delete the signal", m)
	}
}

// TestObservabilityWrittenOnce pins the structure docs/OBSERVABILITY.md
// describes: pprof is mounted by one function, the traffic and bundler key
// names are spelled only by the package that owns the key shape
// (internal/obs) and by their producers (internal/mpi), the transports meter
// nothing themselves, and the OTLP exporter has at most four options.
func TestObservabilityWrittenOnce(t *testing.T) {
	pprofIn := map[string]bool{}
	for name, file := range repoFiles(t, false) {
		for _, decl := range file.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "pprof" && n.Sel.Name == "Index" {
						fn, _ := decl.(*ast.FuncDecl)
						pprofIn[name+":"+fn.Name.Name] = true
					}
				case *ast.BasicLit:
					switch n.Value {
					case `"mpi.sent_msgs"`, `"mpi.recv_bytes"`, `"mpi.bundle_flushes"`:
						if dir := path.Dir(name); dir != "internal/obs" && dir != "internal/mpi" {
							t.Errorf("%s spells %s; only internal/obs and the producers in internal/mpi may", name, n.Value)
						}
					}
				case *ast.FuncDecl:
					if n.Recv != nil && n.Name.Name == "SetMetrics" && path.Dir(name) == "internal/mpi/transport" {
						t.Errorf("%s: a transport has a SetMetrics method again", name)
					}
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "OTLPOptions" && st.Fields.NumFields() > 4 {
						t.Errorf("%s: OTLPOptions has %d fields, want at most 4", name, st.Fields.NumFields())
					}
				}
				return true
			})
		}
	}
	if len(pprofIn) != 1 {
		t.Errorf("pprof.Index referenced in %v, want exactly one function", pprofIn)
	}
}

// TestEvaluationWrittenOnce pins the structure DESIGN.md's expt row
// describes: the harness fits one epoch trend (the one scaling study), starts
// worlds in one place (the one measured run), solves the exact matching in
// one place (the one quality computation) and totals traffic nowhere — a
// Measurement carries the world's own totals — and the module declares the
// machine coefficients once.
func TestEvaluationWrittenOnce(t *testing.T) {
	calls := map[string]int{}
	for name, file := range nonTestFiles(t, "expt", 0) {
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			onMeasurement := false
			if fn != nil && fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					onMeasurement = id.Name == "Measurement"
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						calls[fun.Name]++
					case *ast.SelectorExpr:
						if x, ok := fun.X.(*ast.Ident); ok {
							calls[x.Name+"."+fun.Sel.Name]++
						}
					}
				case *ast.RangeStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Ranks" || onMeasurement {
						return true
					}
					ast.Inspect(n.Body, func(b ast.Node) bool {
						as, ok := b.(*ast.AssignStmt)
						if !ok || as.Tok != token.ADD_ASSIGN {
							return true
						}
						ast.Inspect(as.Rhs[0], func(r ast.Node) bool {
							if sel, ok := r.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Msgs" || sel.Sel.Name == "Bytes") {
								t.Errorf("%s: %s totals per-rank %s inline; read Measurement.Traffic", name, fn.Name.Name, sel.Sel.Name)
							}
							return true
						})
						return true
					})
				}
				return true
			})
		}
	}
	for _, fn := range []string{"FitLogTrend", "mpi.NewWorld", "matching.ExactBipartite"} {
		if calls[fn] != 1 {
			t.Errorf("internal/expt calls %s %d times, want exactly once", fn, calls[fn])
		}
	}

	var machines []string
	for name, file := range repoFiles(t, false) {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			have := map[string]bool{}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					have[id.Name] = true
				}
			}
			if have["Alpha"] && have["Beta"] && have["GammaVertex"] && have["GammaEdge"] && have["Sync"] {
				machines = append(machines, name+":"+ts.Name.Name)
			}
			return true
		})
	}
	if len(machines) != 1 {
		t.Errorf("machine coefficient structs %v, want exactly one", machines)
	}
}

// TestSharesAreCutInOnePlace pins what DESIGN.md §9 says of the placement:
// outside the evaluation harness (which times Distribute itself), the only
// function that cuts a graph into shares is dmgm.Place — so every run the
// CLIs, the daemon and the one-call entry points make starts from a
// placement, and a cache of placements sees every share set there is.
func TestSharesAreCutInOnePlace(t *testing.T) {
	var callers []string
	for name, file := range repoFiles(t, false) {
		if strings.HasPrefix(name, "internal/expt/") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "dgraph" && fun.Sel.Name == "Distribute" {
						callers = append(callers, name+":"+fn.Name.Name)
					}
				case *ast.Ident:
					if fun.Name == "Distribute" && strings.HasPrefix(name, "internal/dgraph/") {
						callers = append(callers, name+":"+fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if want := "dmgm/dmgm.go:Place"; len(callers) != 1 || callers[0] != want {
		t.Errorf("dgraph.Distribute is called from %v, want %s only", callers, want)
	}
}

// TestFacadeHasOneRunner pins what DESIGN.md §9 says of the facade: every
// distributed run outside bench/ goes through dmgm.RunJob, so the conformance
// suites test the path the CLIs and the daemon serve. No file of the root
// module, tests included, calls MatchParallelWorld or ColorParallelWorld,
// and the facade builds a world in one function only, the in-process Solve.
func TestFacadeHasOneRunner(t *testing.T) {
	var worldCalls, builders []string
	for _, tests := range []bool{false, true} {
		for name, file := range repoFiles(t, tests) {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					var callee string
					switch fun := call.Fun.(type) {
					case *ast.SelectorExpr:
						callee = fun.Sel.Name
						if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "mpi" && callee == "NewWorld" && !tests && path.Dir(name) == "dmgm" {
							builders = append(builders, name+":"+fn.Name.Name)
						}
					case *ast.Ident:
						callee = fun.Name
					}
					if callee == "MatchParallelWorld" || callee == "ColorParallelWorld" {
						worldCalls = append(worldCalls, name+":"+fn.Name.Name)
					}
					return true
				})
			}
		}
	}
	if len(worldCalls) > 0 {
		sort.Strings(worldCalls)
		t.Errorf("MatchParallelWorld / ColorParallelWorld are called from %v; run a dmgm.Job through Solve or RunJob instead. "+
			"The pair stays only for bench/profile.go's api_overhead probe: a benchmark change that moves that probe onto RunJob lets it be deleted", worldCalls)
	}
	if want := "dmgm/run.go:Solve"; len(builders) != 1 || builders[0] != want {
		t.Errorf("dmgm builds a world in %v, want %s only", builders, want)
	}
}

// daemonFlags returns the flags cmd/dmgm-serve/main.go registers on the flag
// package, each with its usage text: the first and the last string literal of
// a flag.X call.
func daemonFlags(t *testing.T) map[string]string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(repoRoot(t), "cmd", "dmgm-serve", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		var lits []string
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				lits = append(lits, s)
			}
		}
		if len(lits) >= 2 {
			flags[lits[0]] = lits[len(lits)-1]
		}
		return true
	})
	return flags
}

var (
	// flagRowRe is a row of docs/OPERATIONS.md's flag reference; the reader
	// cell names bench/, CI steps, sections of the guide linked by anchor,
	// or (for an address) a deployment setting.
	flagRowRe     = regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| ([^|]*) \\|$")
	ciStepRe      = regexp.MustCompile("CI `([^`]+)`")
	sectionLinkRe = regexp.MustCompile(`\]\(#([^)]+)\)`)
	stepStartRe   = regexp.MustCompile(`(?m)^\s*- name: `)
)

// mentions reports whether text names -flag as a whole word.
func mentions(text, flag string) bool {
	return regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(flag) + `([^\w-]|$)`).MatchString(text)
}

// TestDaemonFlagsHaveReaders holds dmgm-serve to ROADMAP item 9's service
// rule: a flag stays only if a bench/ workload, a CI step that is not its
// own test, or an operator procedure in docs/OPERATIONS.md reaches it. Every
// registered flag has one row of the guide's flag reference and every row a
// flag, and every reader a row names must really reach it: bench/ passes the
// flag to the daemon, the named CI step starts dmgm-serve with it, the linked
// section of the guide mentions it. An address needs only to say it is a
// deployment setting. README alone is no reader.
func TestDaemonFlagsHaveReaders(t *testing.T) {
	root := repoRoot(t)
	flags := daemonFlags(t)
	if len(flags) == 0 {
		t.Fatal("found no flag registered in cmd/dmgm-serve/main.go")
	}
	read := func(rel string) string {
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	guide := read("docs/OPERATIONS.md")
	sections := map[string]string{} // anchor -> the section's text up to the next heading
	heads := headingRe.FindAllStringSubmatchIndex(guide, -1)
	for i, h := range heads {
		end := len(guide)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		sections[slug(guide[h[2]:h[3]])] = guide[h[1]:end]
	}
	steps := map[string]string{} // CI step name -> its body, continuation lines joined
	ci := strings.ReplaceAll(read(".github/workflows/ci.yml"), "\\\n", " ")
	for _, body := range stepStartRe.Split(ci, -1)[1:] {
		name, rest, _ := strings.Cut(body, "\n")
		steps[strings.TrimSpace(name)] = rest
	}
	var bench strings.Builder
	for _, f := range []string{"main.go", "serve.go"} {
		bench.WriteString(read("bench/" + f))
	}

	rows := map[string]bool{}
	for _, m := range flagRowRe.FindAllStringSubmatch(guide, -1) {
		flag, reader := m[1], m[2]
		if rows[flag] {
			t.Errorf("flag reference lists -%s twice", flag)
		}
		rows[flag] = true
		usage, registered := flags[flag]
		if !registered {
			t.Errorf("flag reference row -%s: cmd/dmgm-serve registers no such flag; delete the row", flag)
			continue
		}
		readers := 0
		if strings.Contains(reader, "deployment setting") {
			readers++
			if !strings.Contains(usage, "address") {
				t.Errorf("-%s: only an address is a deployment setting by itself (usage %q)", flag, usage)
			}
		}
		if strings.Contains(reader, "`bench/`") {
			readers++
			if !strings.Contains(bench.String(), `"-`+flag+`"`) {
				t.Errorf("-%s: bench/ is named as its reader, but bench/main.go and bench/serve.go never pass it", flag)
			}
		}
		for _, c := range ciStepRe.FindAllStringSubmatch(reader, -1) {
			readers++
			body, ok := steps[c[1]]
			if !ok {
				t.Errorf("-%s: CI step %q is not in ci.yml", flag, c[1])
				continue
			}
			started := false
			for _, line := range strings.Split(body, "\n") {
				started = started || strings.Contains(line, "dmgm-serve -") && mentions(line, flag)
			}
			if !started {
				t.Errorf("-%s: CI step %q never starts dmgm-serve with it", flag, c[1])
			}
		}
		for _, l := range sectionLinkRe.FindAllStringSubmatch(reader, -1) {
			readers++
			if l[1] == "flag-reference" || !mentions(sections[l[1]], flag) {
				t.Errorf("-%s: OPERATIONS section #%s is named as its reader but does not mention it", flag, l[1])
			}
		}
		if readers == 0 {
			t.Errorf("-%s: reader %q names no bench/ workload, CI step or OPERATIONS section (README alone is no reader); name one, or delete the flag", flag, strings.TrimSpace(reader))
		}
	}
	var missing []string
	for flag := range flags {
		if !rows[flag] {
			missing = append(missing, "-"+flag)
		}
	}
	sort.Strings(missing)
	for _, f := range missing {
		t.Errorf("dmgm-serve registers %s but docs/OPERATIONS.md's flag reference has no row for it: add one naming its reader, or delete the flag", f)
	}
}

var (
	// runFlagRe finds a -run / -test.run pattern or a -fuzz target, quoted
	// or bare; goCmdRe the go commands a -run can belong to; testFuncRe the
	// functions go test runs.
	runFlagRe  = regexp.MustCompile("-(test\\.)?(?:run|fuzz|bench)[= ]('[^']*'|\"[^\"]*\"|[^\\s`'\"]+)")
	goCmdRe    = regexp.MustCompile(`\bgo (test|run)\b`)
	testFuncRe = regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)
)

// TestRunPatternsNameTests: a -run alternative that names no test makes go
// test print "no tests to run" and pass, so a CI step or a verify-skill
// command can quietly stop testing anything (and a -bench one, timing
// anything). Every top-level alternative of every -run and -bench pattern
// and -fuzz target in ci.yml and the verify skill must match a Test,
// Fuzz or Benchmark function of the root module's test files; '^$' is the one
// spelling of "run nothing". A -run whose nearest go command before it is
// `go run` is that program's own flag, not a test pattern.
func TestRunPatternsNameTests(t *testing.T) {
	var names []string
	for _, file := range repoFiles(t, true) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && testFuncRe.MatchString(fn.Name.Name) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	checked := 0
	for _, rel := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(filepath.Join(repoRoot(t), filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Join(strings.Fields(string(b)), " ") // the skill wraps commands across lines
		for _, m := range runFlagRe.FindAllStringSubmatchIndex(text, -1) {
			if cmds := goCmdRe.FindAllStringSubmatch(text[:m[0]], -1); m[2] < 0 && len(cmds) > 0 && cmds[len(cmds)-1][1] == "run" {
				continue
			}
			pattern := text[m[4]:m[5]]
			if q := pattern[0]; q == '\'' || q == '"' {
				pattern = pattern[1 : len(pattern)-1]
			} else {
				pattern = strings.TrimRight(pattern, ".,;:)")
			}
			for _, alt := range splitTopLevel(pattern) {
				checked++
				if alt == "^$" {
					continue
				}
				top, _, _ := strings.Cut(alt, "/")
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("%s: %s: %v", rel, text[m[0]:m[1]], err)
				} else if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: %s: %q names no Test, Fuzz or Benchmark function", rel, text[m[0]:m[1]], alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern or -fuzz target")
	}
}

// splitTopLevel splits a pattern at the | outside parentheses, so that
// 'Parallel(Coloring|Matching)' stays one alternative.
func splitTopLevel(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// repoFiles parses the Go files of the root module — its test files if
// tests, else the rest — keyed by their slash-separated paths from the
// repository root. bench/ is a module of its own and is not walked.
func repoFiles(t *testing.T, tests bool) map[string]*ast.File {
	t.Helper()
	root := repoRoot(t)
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") != tests {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		files[filepath.ToSlash(rel)] = file
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// nonTestFiles parses the non-test Go files of internal/<pkg>, by base name.
func nonTestFiles(t *testing.T, pkg string, mode parser.Mode) map[string]*ast.File {
	t.Helper()
	dir := filepath.Join(repoRoot(t), "internal", pkg)
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, mode)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, p := range pkgs {
		for name, file := range p.Files {
			files[filepath.Base(name)] = file
		}
	}
	return files
}
