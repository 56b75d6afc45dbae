package audit

import (
	"os"
	"regexp"
	"testing"
	"unicode"
)

// TestReadmeListsEveryBuiltin keeps README's table of builtins in step
// with the signature table: it lists every builtin with the signature
// ParsePolicy checks, and no name the table lacks.
func TestReadmeListsEveryBuiltin(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z_]+)(\\(.*\\) [a-z]+)` \\|")
	listed := map[string]bool{}
	signature := func(f *fn) string { return "(" + kinds(f.args) + ") " + f.res.String() }
	for _, m := range row.FindAllStringSubmatch(string(b), -1) {
		f, ok := funcs[m[1]]
		switch {
		case !ok:
			t.Errorf("README lists %s, which is no builtin", m[1])
		case m[2] != signature(f):
			t.Errorf("README lists %s%s; its signature is %s", m[1], m[2], signature(f))
		}
		listed[m[1]] = true
	}
	for name, f := range funcs {
		if unicode.IsLetter(rune(name[0])) && !listed[name] {
			t.Errorf("README does not list %s%s", name, signature(f))
		}
	}
}
