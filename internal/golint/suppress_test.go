package golint

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// findingKeys compresses findings to "line:code" for exact-set
// assertions (the suppress fixture cannot carry want markers — the
// suppression comments occupy the marker position).
func findingKeys(fs []Finding) []string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = fmt.Sprintf("%d:%s", f.Line, f.Code)
	}
	return keys
}

func TestSuppressions(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	findings := Analyze(pkg, fixtureConfig())

	raw := fixtureSource(t, pkg, "suppress.go")
	lineOf := func(marker string) int {
		t.Helper()
		for i, line := range strings.Split(raw, "\n") {
			if strings.Contains(line, marker) || strings.TrimSpace(line) == marker {
				return i + 1
			}
		}
		t.Fatalf("marker %q not found", marker)
		return 0
	}
	// The malformed suppression is the exact line "//lint:ignore DL005";
	// substring search would hit the well-formed ones first.
	malformedLine := 0
	for i, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "//lint:ignore DL005" {
			malformedLine = i + 1
			break
		}
	}
	if malformedLine == 0 {
		t.Fatal("malformed suppression line not found")
	}

	want := map[string]Severity{
		// WrongCode: the DL005 survives (wrong code suppressed) and the
		// DL001 suppression is unused.
		fmt.Sprintf("%d:DL005", lineOf("wrong code on purpose")+1): SevError,
		fmt.Sprintf("%d:DL000", lineOf("wrong code on purpose")):   SevWarning,
		// OneLineOnly: the violation two lines below the comment survives.
		fmt.Sprintf("%d:DL005", lineOf("covers only the next line")+2): SevError,
		fmt.Sprintf("%d:DL000", lineOf("covers only the next line")):   SevWarning,
		// Unused: reported.
		fmt.Sprintf("%d:DL000", lineOf("nothing to silence here")): SevWarning,
		// Malformed: reported, and the finding below it survives.
		fmt.Sprintf("%d:DL000", malformedLine):   SevWarning,
		fmt.Sprintf("%d:DL005", malformedLine+1): SevError,
	}

	got := make(map[string]Severity)
	for _, f := range findings {
		key := fmt.Sprintf("%d:%s", f.Line, f.Code)
		if _, dup := got[key]; dup {
			t.Errorf("duplicate finding %s", key)
		}
		got[key] = f.Severity
	}
	for k, sev := range want {
		if gsev, ok := got[k]; !ok {
			t.Errorf("missing finding %s\ngot:\n%s", k, Render(findings))
		} else if gsev != sev {
			t.Errorf("finding %s: severity %v, want %v", k, gsev, sev)
		}
		delete(got, k)
	}
	for k := range got {
		t.Errorf("unexpected finding %s (the EOL and line-above suppressions must silence theirs)\nall:\n%s", k, Render(findings))
	}
}

// fixtureSource reads one fixture file's text.
func fixtureSource(t *testing.T, pkg *Package, base string) string {
	t.Helper()
	for _, f := range pkg.Files {
		pos := pkg.Fset.Position(f.Pos())
		if strings.HasSuffix(pos.Filename, base) {
			raw, err := os.ReadFile(pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
	}
	t.Fatalf("fixture file %s not loaded", base)
	return ""
}

// TestSuppressionSilencesExactlyOneRule: a DL005 suppression on a line
// that (hypothetically) also carried another code must not silence the
// other code. Constructed directly against applySuppressions to keep the
// fixture simple.
func TestSuppressionScope(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	line := 0
	raw := fixtureSource(t, pkg, "suppress.go")
	for i, l := range strings.Split(raw, "\n") {
		if strings.Contains(l, "raw identity is the point") {
			line = i + 1
			break
		}
	}
	if line == 0 {
		t.Fatal("suppression line not found")
	}
	file := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	fs := applySuppressions(pkg, []Finding{
		{Code: "DL005", Severity: SevError, File: file, Line: line, Message: "same line, matching code"},
		{Code: "DL001", Severity: SevError, File: file, Line: line, Message: "same line, different code"},
	})
	var survived []string
	for _, f := range fs {
		if f.Code != "DL000" {
			survived = append(survived, f.Code)
		}
	}
	if len(survived) != 1 || survived[0] != "DL001" {
		t.Fatalf("suppression must silence exactly its own code: survived %v\n%s", survived, Render(fs))
	}
}

// TestJSONRoundTrip validates the -json schema benchcheck-style: encode,
// decode, and re-validate every field against its contract.
func TestJSONRoundTrip(t *testing.T) {
	pkg := loadFixture(t, "dl005")
	findings := Analyze(pkg, fixtureConfig())
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings to round-trip")
	}
	raw, err := json.Marshal(findings)
	if err != nil {
		t.Fatal(err)
	}
	var back []Finding
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(findings) {
		t.Fatalf("round-trip changed count: %d -> %d", len(findings), len(back))
	}
	codeRE := regexp.MustCompile(`^DL\d{3}$`)
	for i, f := range back {
		if f != findings[i] {
			t.Errorf("finding %d changed across round-trip:\n  %+v\n  %+v", i, findings[i], f)
		}
		if !codeRE.MatchString(f.Code) {
			t.Errorf("finding %d: bad code %q", i, f.Code)
		}
		if f.File == "" || f.Line <= 0 || f.Col <= 0 {
			t.Errorf("finding %d: missing position: %+v", i, f)
		}
		if f.Message == "" {
			t.Errorf("finding %d: empty message", i)
		}
		if f.Severity != SevError && f.Severity != SevWarning && f.Severity != SevInfo {
			t.Errorf("finding %d: bad severity %d", i, int(f.Severity))
		}
	}
	// Severity strings must decode back to themselves.
	for _, s := range []Severity{SevInfo, SevWarning, SevError} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var rs Severity
		if err := json.Unmarshal(b, &rs); err != nil || rs != s {
			t.Errorf("severity %v: round-trip gave %v, %v", s, rs, err)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Error("unknown severity string must not decode")
	}
}
