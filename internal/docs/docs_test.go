// Package docs holds repository documentation checks. TestMarkdownLinks is
// an offline link checker over every *.md file: relative links must point at
// files that exist and fragment anchors at headings that exist. It runs in CI
// (the docs job) so documentation cannot silently drift from the tree — no
// network access, external URLs are not followed. TestDgraphIsBelowTheRuntime
// and TestMatchingHasNoMaps hold the tree to claims DESIGN.md makes.
package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
