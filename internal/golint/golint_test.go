package golint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader type-checks all fixtures through one importer so
// dependency packages (storage, os, time) are checked once.
var (
	loaderOnce   sync.Once
	sharedLoader *Loader
)

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() { sharedLoader = NewLoader() })
	pkg, err := sharedLoader.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrs {
		t.Errorf("fixture %s does not type-check: %v", name, terr)
	}
	return pkg
}

// fixtureConfig scopes the package-sensitive rules onto the fixture
// package names.
func fixtureConfig() Config {
	return Config{
		DeterministicPkgs: []string{"dl001", "dl003", "dl006"},
		StreamingPkgs:     []string{"dl002"},
		DurablePkgs:       []string{"dl004"},
	}
}

var wantRE = regexp.MustCompile(`//\s*want\s+((?:DL\d{3}\s*)+)$`)

// wantMarkers parses "// want DLxxx [DLxxx ...]" expectations from a
// fixture file, keyed by "line:CODE" with a count.
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	want := make(map[string]int)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, code := range strings.Fields(m[1]) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), line, code)]++
			}
		}
		f.Close()
	}
	return want
}

// checkFixture diffs analyzer findings against the fixture's markers.
func checkFixture(t *testing.T, name string) []Finding {
	t.Helper()
	pkg := loadFixture(t, name)
	findings := Analyze(pkg, fixtureConfig())

	got := make(map[string]int)
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.File), f.Line, f.Code)]++
	}
	want := wantMarkers(t, pkg.Dir)

	keys := make(map[string]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if got[k] != want[k] {
			t.Errorf("fixture %s: %s: got %d finding(s), want %d\nall findings:\n%s",
				name, k, got[k], want[k], Render(findings))
		}
	}
	return findings
}

func TestDL001MapOrder(t *testing.T)     { checkFixture(t, "dl001") }
func TestDL002GateCoverage(t *testing.T) { checkFixture(t, "dl002") }
func TestDL003MergeOrder(t *testing.T)   { checkFixture(t, "dl003") }
func TestDL004FsyncPublish(t *testing.T) { checkFixture(t, "dl004") }
func TestDL005RawValueEq(t *testing.T)   { checkFixture(t, "dl005") }
func TestDL006ClockAndRand(t *testing.T) { checkFixture(t, "dl006") }

// TestFindingsDeterministic reruns a fixture and requires identical
// output — the analyzer itself must honor the invariant it enforces.
func TestFindingsDeterministic(t *testing.T) {
	pkg := loadFixture(t, "dl001")
	first := Render(Analyze(pkg, fixtureConfig()))
	for i := 0; i < 5; i++ {
		if again := Render(Analyze(pkg, fixtureConfig())); again != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, first, again)
		}
	}
}
