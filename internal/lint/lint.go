// Package lint implements kgedist's project-specific static analyzers and
// the minimal go/analysis-style framework they run on.
//
// The repo has hazard zones the Go toolchain cannot police on its own:
// internal/mpi collectives deadlock if any rank diverges, reproducibility of
// the paper's experiments depends on every random draw flowing through
// internal/xrand, and the pooled and caller-owned scratch buffers of the hot
// paths must neither escape nor allocate. The analyzers
// in this package turn those conventions into build failures; cmd/kgelint is
// the driver and `make lint` / CI run it over the whole repo.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library only: the container this
// repo builds in has no module proxy access, so x/tools cannot be fetched.
// If the dependency ever becomes available the analyzers port over
// mechanically — each Run already takes a Pass with Fset/Files/TypesInfo.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in reports and in
	// //kgelint:ignore comments.
	Name string
	// Doc is the one-paragraph description shown by `kgelint -help`.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the import path of the package under analysis. Fixture
	// packages carry their directory-derived path; analyzers that scope by
	// package should also consider Pkg.Name().
	PkgPath string

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreEntry is one analyzer name of one //kgelint:ignore directive, with
// a usage bit so stale directives can be audited after the run.
type ignoreEntry struct {
	file string
	line int // line the directive sits on
	name string
	used bool
}

// ignoreSet indexes suppression entries by file -> line -> analyzer name.
// The wildcard name "all" suppresses every analyzer. Each directive covers
// its own line and the line directly below, so both lines map to the same
// entry.
type ignoreSet struct {
	byLine  map[string]map[int]map[string][]*ignoreEntry
	entries []*ignoreEntry
}

// ignoreDirective is the comment prefix that suppresses findings, e.g.
//
//	x := v.(float64) //kgelint:ignore floateq intentional bit-compare
//
// The directive applies to the line it sits on and the line directly below
// (so it can precede the flagged statement).
const ignoreDirective = "kgelint:ignore"

func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	ig := &ignoreSet{byLine: make(map[string]map[int]map[string][]*ignoreEntry)}
	add := func(e *ignoreEntry, line int) {
		if ig.byLine[e.file] == nil {
			ig.byLine[e.file] = make(map[int]map[string][]*ignoreEntry)
		}
		if ig.byLine[e.file][line] == nil {
			ig.byLine[e.file][line] = make(map[string][]*ignoreEntry)
		}
		ig.byLine[e.file][line][e.name] = append(ig.byLine[e.file][line][e.name], e)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
				pos := fset.Position(c.Pos())
				// The analyzer list is the leading run of known names (or
				// "all"); everything after the first unknown word is
				// free-form rationale. A directive whose FIRST word is
				// already unknown suppresses nothing — record that word so
				// the audit can flag the likely typo.
				fields := strings.Fields(rest)
				var names []string
				for _, w := range fields {
					if w != "all" && !analyzerNames[w] {
						break
					}
					names = append(names, w)
				}
				if len(names) == 0 && len(fields) > 0 {
					names = fields[:1]
				}
				for _, name := range names {
					e := &ignoreEntry{file: pos.Filename, line: pos.Line, name: name}
					ig.entries = append(ig.entries, e)
					add(e, pos.Line)
					add(e, pos.Line+1)
				}
			}
		}
	}
	return ig
}

// suppresses reports whether d is ignored, marking the matching directives
// as used for the stale-ignore audit.
func (ig *ignoreSet) suppresses(d Diagnostic) bool {
	byLine := ig.byLine[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	names := byLine[d.Pos.Line]
	hit := false
	for _, e := range names[d.Analyzer] {
		e.used = true
		hit = true
	}
	for _, e := range names["all"] {
		e.used = true
		hit = true
	}
	return hit
}

// UnusedIgnoreName is the pseudo-analyzer name under which stale
// //kgelint:ignore directives are reported. Audit findings are not
// themselves suppressible — a stale ignore hiding behind another ignore
// would rot forever.
const UnusedIgnoreName = "unusedignore"

// auditIgnores reports directives that suppressed nothing. An entry naming
// a specific analyzer is audited only when that analyzer actually ran (a
// partial run must not flush ignores belonging to the analyzers it
// skipped); the wildcard "all" and unknown analyzer names are audited only
// on full-suite runs.
func (ig *ignoreSet) auditIgnores(ran map[string]bool, fullSuite bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range ig.entries {
		if e.used {
			continue
		}
		var msg string
		switch {
		case e.name == "all":
			if !fullSuite {
				continue
			}
			msg = "stale //kgelint:ignore all: no analyzer reports on this or the next line; delete the directive"
		case ran[e.name]:
			msg = fmt.Sprintf("stale //kgelint:ignore %s: the analyzer no longer reports on this or the next line; delete the directive", e.name)
		case fullSuite:
			msg = fmt.Sprintf("//kgelint:ignore names unknown analyzer %q; fix the name or delete the directive", e.name)
		default:
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: UnusedIgnoreName,
			Pos:      token.Position{Filename: e.file, Line: e.line},
			Message:  msg,
		})
	}
	return out
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving (non-suppressed) findings in stable file/line order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAnalyzersAudited(pkgs, analyzers, false)
}

// RunAnalyzersAudited is RunAnalyzers plus an optional stale-ignore audit:
// with auditIgnores set, every //kgelint:ignore directive that suppressed
// nothing is reported under the "unusedignore" pseudo-analyzer, so dead
// suppressions cannot rot silently.
func RunAnalyzersAudited(pkgs []*Package, analyzers []*Analyzer, auditIgnores bool) ([]Diagnostic, error) {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	fullSuite := true
	for _, a := range All() {
		if !ran[a.Name] {
			fullSuite = false
		}
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg.Fset, pkg.Syntax)
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				PkgPath:   pkg.PkgPath,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		for _, d := range diags {
			if !ig.suppresses(d) {
				all = append(all, d)
			}
		}
		if auditIgnores {
			all = append(all, ig.auditIgnores(ran, fullSuite)...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// analyzerNames is the registry of valid //kgelint:ignore targets, derived
// from All() at init.
var analyzerNames = func() map[string]bool {
	names := map[string]bool{}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}()

// All returns the full kgedist analyzer suite in a deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		SeedRand,
		DivergentCollective,
		FloatEq,
		DroppedErr,
		CollectiveErr,
		PoolUse,
		ScratchHold,
		HotPathAlloc,
	}
}
