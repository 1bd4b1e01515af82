package eewa

// The docs guard: every code name the docs put in backticks must name
// code that exists, so a rename or a deletion that leaves a doc behind
// fails `go test` instead of misleading the next reader.

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// checkedDocs are the documents whose code references must resolve.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// refKind is what a reference names.
type refKind int

const (
	refPath refKind = iota // a file or directory under cmd/, internal/ or examples/
	refDecl                // a non-test declaration: pkg.Ident or pkg.Type.Member
	refTest                // a test, benchmark or fuzz function
)

// docRef is one reference a doc makes to the code. For refDecl and a
// qualified refTest, pkg is a package name or a package directory; name
// is the rest, a trailing * making it a prefix that must match.
type docRef struct {
	line      int
	kind      refKind
	pkg, name string
}

// String is the reference as the doc writes it (without ./ or repro/).
func (r docRef) String() string {
	if r.pkg == "" {
		return r.name
	}
	return r.pkg + "." + r.name
}

var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	deletedRef = regexp.MustCompile(`^\s*\(deleted in PR \d+\)`)
	// The left boundary keeps a reference from starting inside a longer
	// path or word (out/sched.test, obs_trace.json).
	pathRef = regexp.MustCompile(`(?:^|[^\w./-])(?:\./|repro/)?((?:cmd|internal|examples)/[\w./*-]*)`)
	declRef = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?\*?)`)
	testRef = regexp.MustCompile(`(?:^|[^\w./-])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?)`)
	isTest  = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9_]`)
)

// fileExt are the suffixes that make pkg.x a file name (eewa.go,
// sweep.csv), not a declaration.
var fileExt = map[string]bool{"go": true, "md": true, "json": true, "csv": true, "prom": true, "test": true, "prof": true, "txt": true, "golden": true}

// scanRefs returns the code references in doc. Inside backticks a
// reference is a path under cmd/, internal/ or examples/, a test,
// benchmark or fuzz function name, or pkg.Ident / pkg.Type.Member where
// pkg is one of pkgs (a stdlib or receiver-local name is not, and
// neither is one of the benchmark's metric names, rt.busy_share). A span
// followed by "(deleted in PR N)" names removed code on purpose and is
// skipped. A fenced block whose first line is a `$ ` command is program
// output and is skipped; any other fenced block is read for paths only
// (a directory tree, a command listing).
func scanRefs(doc string, pkgs map[string]bool, metrics []string) []docRef {
	var refs []docRef
	lines := strings.Split(doc, "\n")
	prose := make([]string, len(lines))
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "```") {
			prose[i] = lines[i]
			continue
		}
		start := i + 1
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
		}
		if start < len(lines) && strings.HasPrefix(lines[start], "$ ") {
			continue
		}
		for j := start; j < i; j++ {
			for _, m := range pathRef.FindAllStringSubmatch(lines[j], -1) {
				refs = append(refs, docRef{line: j + 1, kind: refPath, name: strings.TrimSuffix(m[1], ".")})
			}
		}
	}
	text := strings.Join(prose, "\n")
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		if deletedRef.MatchString(text[m[1]:]) {
			continue
		}
		line := strings.Count(text[:m[0]], "\n") + 1
		span := []byte(text[m[2]:m[3]])
		// Each form blanks what it matched, so a later form does not
		// read a path's file name as pkg.x.
		find := func(re *regexp.Regexp, add func(sub []string)) {
			for _, ix := range re.FindAllSubmatchIndex(span, -1) {
				sub := make([]string, len(ix)/2)
				for k := range sub {
					sub[k] = string(span[ix[2*k]:ix[2*k+1]])
				}
				add(sub)
				for k := ix[2]; k < ix[1]; k++ {
					span[k] = ' '
				}
			}
		}
		find(pathRef, func(sub []string) {
			refs = append(refs, docRef{line: line, kind: refPath, name: strings.TrimSuffix(sub[1], ".")})
		})
		find(declRef, func(sub []string) {
			pkg, name := sub[1], sub[2]
			switch {
			case !pkgs[pkg] || fileExt[name] || matches(metrics, pkg+"."+name):
			case isTest.MatchString(name):
				refs = append(refs, docRef{line: line, kind: refTest, pkg: pkg, name: name})
			default:
				refs = append(refs, docRef{line: line, kind: refDecl, pkg: pkg, name: name})
			}
		})
		find(testRef, func(sub []string) {
			refs = append(refs, docRef{line: line, kind: refTest, name: sub[1]})
		})
	}
	return refs
}

// docModule is the module as the docs guard resolves against it:
// loaded once for every test of this file.
var docModule = sync.OnceValues(func() (*docIndex, error) {
	m, err := loadModule(".")
	if err != nil {
		return nil, err
	}
	idx := &docIndex{module: m, names: map[string]bool{}, tests: map[*modPkg][]string{}}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, err
	}
	for _, l := range bench.PerLayer {
		idx.metrics = append(idx.metrics, l.Name)
	}
	fset := token.NewFileSet()
	for _, p := range m.pkgs {
		if p.name != "main" {
			idx.names[p.name] = true
		}
		files, err := filepath.Glob(filepath.Join(p.dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && isTest.MatchString(fd.Name.Name) {
					idx.tests[p] = append(idx.tests[p], fd.Name.Name)
				}
			}
		}
	}
	return idx, nil
})

// docIndex is the module plus what a reference resolves against
// beyond its non-test declarations: its package names, the test
// functions of each package and the benchmark's per-layer metric names.
type docIndex struct {
	*module
	names   map[string]bool
	tests   map[*modPkg][]string
	metrics []string
}

// packages returns the packages sel names: a directory (internal/sweep)
// or a package name (sweep, or any package for "").
func (x *docIndex) packages(sel string) []*modPkg {
	var out []*modPkg
	for _, p := range x.pkgs {
		switch {
		case sel == "", strings.Contains(sel, "/") && p.path == x.path+"/"+sel, p.name == sel && p.name != "main":
			out = append(out, p)
		}
	}
	return out
}

// matches reports whether names holds name, or with a trailing * a
// name with its prefix.
func matches(names []string, name string) bool {
	if prefix, glob := strings.CutSuffix(name, "*"); glob {
		return slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, prefix) })
	}
	return slices.Contains(names, name)
}

// resolve returns why r names no code, or "" when it does.
func (x *docIndex) resolve(r docRef) string {
	switch r.kind {
	case refTest:
		for _, p := range x.packages(r.pkg) {
			if matches(x.tests[p], r.name) {
				return ""
			}
		}
		return "matches no test, benchmark or fuzz function"
	case refDecl:
		for _, p := range x.packages(r.pkg) {
			ident, member, _ := strings.Cut(r.name, ".")
			if member == "" {
				if matches(p.types.Scope().Names(), ident) {
					return ""
				}
				continue
			}
			if obj := p.types.Scope().Lookup(ident); obj != nil {
				if o, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p.types, member); o != nil {
					return ""
				}
			}
		}
		return "is not declared in the package's non-test code"
	}
	if found, _ := filepath.Glob(r.name); len(found) > 0 {
		return ""
	}
	// internal/experiments.Fig1: a declaration named by its directory.
	slash := strings.LastIndex(r.name, "/")
	if dot := strings.Index(r.name[slash+1:], "."); dot >= 0 {
		dir, name := r.name[:slash+1+dot], r.name[slash+2+dot:]
		if len(x.packages(dir)) > 0 {
			return x.resolve(docRef{kind: refDecl, pkg: dir, name: name})
		}
	}
	return "matches no file or directory"
}

// TestDocReferencesResolve fails on a backticked code name in the docs
// that names no code: a deleted or renamed declaration, test or path,
// or a name only a _test.go file declares. Mention removed code as
// "`name` (deleted in PR N)", or not at all.
func TestDocReferencesResolve(t *testing.T) {
	x, err := docModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range checkedDocs {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range scanRefs(string(doc), x.names, x.metrics) {
			if why := x.resolve(r); why != "" {
				t.Errorf("%s:%d: %s: %s", name, r.line, r, why)
			}
		}
	}
}

// The scanner and resolver on inline text: each accepted form, a glob,
// the names that are not references, and the two ways a doc shows
// something that is not current code.
func TestDocReferenceScanner(t *testing.T) {
	x, err := docModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		doc  string
		want []string // the unresolved references, as written
	}{
		{"`cctable.Table.SearchTuple` and `policy.New`", nil},
		{"`core.Adjuster.Cache`, a field", nil},
		{"`cctable.NoSuch` and `cctable.Table.NoSuch`", []string{"cctable.NoSuch", "cctable.Table.NoSuch"}},
		{"`cctable.Build` and `policy.NewStealOrder`, declared only in _test.go files", []string{"cctable.Build", "policy.NewStealOrder"}},
		{"`TestDocsMatchPrograms` and `BenchmarkFig6`", nil},
		{"`BenchmarkFig6_*`", []string{"BenchmarkFig6_*"}},
		{"`BenchmarkFig*` and `experiments.Render*`", nil},
		{"`sched.TestTable2Golden`", nil},
		{"`serve.TestTable2Golden`", []string{"serve.TestTable2Golden"}},
		{"`cmd/eewa-bench`, `go run ./examples/quickstart -x`, `internal/check/*_harness_test.go`", nil},
		{"`internal/experiments.Fig1`, `repro/internal/deque.Deque`, `internal/experiments.Ablation*`", nil},
		{"`cmd/eewa-nosuch` and `internal/nosuch/*.go`", []string{"cmd/eewa-nosuch", "internal/nosuch/*.go"}},
		{"`internal/experiments.NoSuch`", []string{"internal/experiments.NoSuch"}},
		{"`time.Now`, `sync.Pool`, `shard.admit`, `eewa.go`, `sweep.csv`, `-o out/sched.test`", nil},
		{"`rt.busy_share`, `sched.host_ns_per_task_*`", nil},
		{"`rt.nosuch_share`", []string{"rt.nosuch_share"}},
		{"```text\n$ go run ./cmd/eewa-nosuch\ncmd/gone policy.NoSuch TestNoSuch\n```\n", nil},
		{"```\n├── cmd/eewa-nosuch   a tree line\n```\n", []string{"cmd/eewa-nosuch"}},
		{"`cmd/eewa-nosuch` (deleted in PR 7), `cctable.NoSuch`\n(deleted in PR 12)", nil},
		{"`cmd/eewa-nosuch` (removed)", []string{"cmd/eewa-nosuch"}},
	} {
		var got []string
		for _, r := range scanRefs(c.doc, x.names, x.metrics) {
			if x.resolve(r) != "" {
				got = append(got, r.String())
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%q: unresolved %q, want %q", c.doc, got, c.want)
		}
	}
}
