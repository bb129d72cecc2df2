package nokey_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/lint/nokey"
)

func parse(t *testing.T, src string) *nokey.Set {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return nokey.ParseFiles([]*ast.File{f})
}

func TestAnnotationGrammar(t *testing.T) {
	set := parse(t, `package p

type S struct {
	// Kept feeds the key.
	Kept int
	//repro:nokey skipped — observer only
	Skipped bool `+"`json:\"skipped\"`"+`
	//repro:nokey by_tag -- double-dash separator, matched via json tag
	Tagged bool `+"`json:\"by_tag\"`"+`
}
`)
	if len(set.Problems()) != 0 {
		t.Fatalf("unexpected problems: %v", set.Problems())
	}
	if _, ok := set.Excluded("S", "Kept"); ok {
		t.Error("Kept must not be excluded")
	}
	ann, ok := set.Excluded("S", "Skipped")
	if !ok {
		t.Fatal("Skipped must be excluded")
	}
	if ann.Reason != "observer only" {
		t.Errorf("Skipped reason = %q, want %q", ann.Reason, "observer only")
	}
	if _, ok := set.Excluded("S", "Tagged"); !ok {
		t.Error("Tagged must be excluded via its json tag name")
	}
}

func TestMalformedAnnotations(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing reason", `package p

type S struct {
	//repro:nokey field
	Field int
}
`},
		{"wrong name", `package p

type S struct {
	//repro:nokey other — reason
	Field int
}
`},
		{"embedded field", `package p

type T struct{}

type S struct {
	//repro:nokey t — reason
	T
}
`},
		{"multi-name declaration", `package p

type S struct {
	//repro:nokey a — reason
	A, B int
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := parse(t, tc.src)
			if len(set.Problems()) == 0 {
				t.Errorf("want a problem for %s, got none", tc.name)
			}
		})
	}
}

// TestFieldInventory: a struct's inventory lists every declared field
// in order, exported or not, with the annotation on the annotated one
// only.
func TestFieldInventory(t *testing.T) {
	set := parse(t, `package p

type S struct {
	A int `+"`json:\"a\"`"+`
	//repro:nokey b — observer only
	B int
	c int
}
`)
	st := set.Struct("S")
	if st == nil {
		t.Fatal("struct S not found")
	}
	var names []string
	for _, f := range st.Fields {
		names = append(names, f.Name)
		if annotated := f.Ann != nil; annotated != (f.Name == "B") {
			t.Errorf("field %s: annotated = %v", f.Name, annotated)
		}
	}
	if got := strings.Join(names, ","); got != "A,B,c" {
		t.Errorf("fields = %s, want A,B,c", got)
	}
}
