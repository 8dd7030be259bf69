package lint

// analysistest-style fixture runner: each analyzer has a directory under
// testdata/ whose Go files carry `// want "regexp"` comments on the lines
// where the analyzer must fire. The runner type-checks the fixture exactly
// like cmd/kgelint checks real packages, runs the single analyzer, and
// demands a one-to-one match between findings and expectations — a missing
// diagnostic, an extra diagnostic, or a message mismatch all fail.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// fixtureExpectations maps file -> line -> unmatched want-regexps.
func fixtureExpectations(t *testing.T, pkg *Package) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	want := make(map[string]map[int][]*regexp.Regexp)
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					if want[pos.Filename] == nil {
						want[pos.Filename] = make(map[int][]*regexp.Regexp)
					}
					want[pos.Filename][pos.Line] = append(want[pos.Filename][pos.Line], re)
				}
			}
		}
	}
	return want
}

// runFixture checks analyzer against testdata/<dir>.
func runFixture(t *testing.T, analyzer *Analyzer, dir string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s on %s: %v", analyzer.Name, dir, err)
	}
	want := fixtureExpectations(t, pkg)
	for _, d := range diags {
		res := want[d.Pos.Filename][d.Pos.Line]
		matched := -1
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		want[d.Pos.Filename][d.Pos.Line] = append(res[:matched], res[matched+1:]...)
	}
	for file, byLine := range want {
		for line, res := range byLine {
			for _, re := range res {
				t.Errorf("%s:%d: expected diagnostic matching %q never reported", file, line, re)
			}
		}
	}
}

func TestSeedRandFixture(t *testing.T)            { runFixture(t, SeedRand, "seedrand") }
func TestSeedRandXrandExemption(t *testing.T)     { runFixture(t, SeedRand, "xrand") }
func TestDivergentCollectiveFixture(t *testing.T) { runFixture(t, DivergentCollective, "divergent") }
func TestFloatEqFixture(t *testing.T)             { runFixture(t, FloatEq, "floateq") }
func TestDroppedErrFixture(t *testing.T)          { runFixture(t, DroppedErr, "droppederr") }
func TestCollectiveErrFixture(t *testing.T)       { runFixture(t, CollectiveErr, "collectiveerr") }
func TestPoolUseFixture(t *testing.T)             { runFixture(t, PoolUse, "pooluse") }
func TestScratchHoldFixture(t *testing.T)         { runFixture(t, ScratchHold, "scratchhold") }
func TestHotPathAllocFixture(t *testing.T)        { runFixture(t, HotPathAlloc, "hotpathalloc") }

// TestLoadRepoPackage smoke-tests the module loader against a real package.
func TestLoadRepoPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("module loading shells out to the go tool")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(wd, []string{"kgedist/internal/xrand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "kgedist/internal/xrand" {
		t.Fatalf("loaded %d packages, want exactly kgedist/internal/xrand", len(pkgs))
	}
	if pkgs[0].Types == nil || len(pkgs[0].Syntax) == 0 {
		t.Fatal("loaded package missing types or syntax")
	}
}

// TestAllRegistryComplete pins the analyzer suite: CI runs exactly these.
func TestAllRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"seedrand", "divergentcollective", "floateq", "droppederr", "collectiveerr", "pooluse", "scratchhold", "hotpathalloc"} {
		if !names[want] {
			t.Fatalf("analyzer %q missing from All()", want)
		}
	}
}
