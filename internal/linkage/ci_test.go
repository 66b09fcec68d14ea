package linkage

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRaceRegexSelectsTests: every alternative of the -run pattern in
// the CI step "Oracle differential under race" matches a Test or Fuzz
// function of the packages the step runs. go test -run silently matches
// nothing, so without this check a renamed test would drop out of the race
// run unnoticed.
func TestCIRaceRegexSelectsTests(t *testing.T) {
	const root = "../.."
	ci, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	step := regexp.MustCompile(`(?m)- name: Oracle differential under race\n\s+run: go test -race -run '([^']+)' (.+)$`).FindSubmatch(ci)
	if step == nil {
		t.Fatal(`ci.yml has no "Oracle differential under race" step of the form go test -race -run '<pattern>' <packages>`)
	}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	for _, pkg := range strings.Fields(string(step[2])) {
		files, err := filepath.Glob(filepath.Join(root, pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s of the race step has no test files (%v)", pkg, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	for _, alt := range strings.Split(string(step[1]), "|") {
		if re := regexp.MustCompile(alt); !slices.ContainsFunc(names, re.MatchString) {
			t.Errorf("race step pattern %q selects no test in %s", alt, step[2])
		}
	}
}
