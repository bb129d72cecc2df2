// Package nokey parses //repro:nokey exclusion annotations.
//
// Every knob of the wire Scenario must reach the canonical cache key,
// which encodes the (spec, plan) pair the scenario resolves to.  A
// Scenario field that deliberately does NOT -- a pure observer like the
// trace flag -- must say so where it is declared, in a form machines
// can check:
//
//	// Trace opts the run into the flight recorder.
//	//repro:nokey trace — pure observer, never changes results
//	Trace bool `json:"trace,omitempty"`
//
// The annotation is for Scenario fields only.  The plan needs none:
// the key is the plan's JSON encoding, so its one observer, the flight
// recorder, is excluded by its json:"-" tag.
//
// Grammar, one annotation per struct field, in the field's doc or
// trailing line comment:
//
//	//repro:nokey <name> — <reason>
//	//repro:nokey <name> -- <reason>
//
// <name> must match the field it annotates: its Go name (any case) or
// its JSON tag name.  <reason> is mandatory -- an exclusion without a
// recorded why is exactly the kind of folklore this annotation
// retires.  The keycomplete analyzer consumes this package.
package nokey

import (
	"fmt"
	"go/ast"
	"go/token"
	"reflect"
	"strings"
)

// Annotation is one parsed //repro:nokey marker.
type Annotation struct {
	Struct string // enclosing struct type name
	Field  string // Go name of the annotated field
	Name   string // the name as written in the annotation
	Reason string
	Pos    token.Pos
}

// Field describes one declared struct field.
type Field struct {
	Name string      // Go name
	Ann  *Annotation // nil when the field carries no annotation
}

// Struct is one struct type declaration's fields, in order.
type Struct struct {
	Name   string
	Fields []Field
}

// Problem is a malformed annotation: wrong name, missing reason,
// ambiguous placement.
type Problem struct {
	Pos     token.Pos
	Message string
}

// Set holds every struct declaration and annotation found in a parse.
type Set struct {
	structs  map[string]*Struct
	problems []Problem
}

// Struct returns the declared struct by type name, or nil.
func (s *Set) Struct(name string) *Struct {
	if s == nil {
		return nil
	}
	return s.structs[name]
}

// Excluded reports whether structName.fieldName carries a //repro:nokey
// annotation.
func (s *Set) Excluded(structName, fieldName string) (Annotation, bool) {
	st := s.Struct(structName)
	if st == nil {
		return Annotation{}, false
	}
	for _, f := range st.Fields {
		if f.Name == fieldName && f.Ann != nil {
			return *f.Ann, true
		}
	}
	return Annotation{}, false
}

// Problems returns malformed annotations found during parsing.
func (s *Set) Problems() []Problem { return s.problems }

// ParseFiles collects struct declarations and annotations from already
// parsed files (which must have been parsed with comments).
func ParseFiles(files []*ast.File) *Set {
	s := &Set{structs: map[string]*Struct{}}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				s.addStruct(ts.Name.Name, st)
			}
		}
	}
	return s
}

func (s *Set) addStruct(name string, st *ast.StructType) {
	out := &Struct{Name: name}
	for _, fld := range st.Fields.List {
		jsonName := jsonTagName(fld.Tag)
		text, pos, found := annotationText(fld)
		switch len(fld.Names) {
		case 0: // embedded field; annotations unsupported there
			if found {
				s.problems = append(s.problems, Problem{pos,
					fmt.Sprintf("//repro:nokey on an embedded field of %s; annotate a named field", name)})
			}
			continue
		case 1:
		default:
			if found {
				s.problems = append(s.problems, Problem{pos,
					fmt.Sprintf("//repro:nokey on a multi-name field declaration in %s is ambiguous; split the declaration", name)})
				found = false
			}
		}
		for _, id := range fld.Names {
			field := Field{Name: id.Name}
			if found {
				ann, prob := parseAnnotation(name, id.Name, jsonName, text, pos)
				if prob != nil {
					s.problems = append(s.problems, *prob)
				} else {
					field.Ann = ann
				}
			}
			out.Fields = append(out.Fields, field)
		}
	}
	s.structs[name] = out
}

// annotationText finds a //repro:nokey line in the field's doc comment
// or trailing line comment.
func annotationText(fld *ast.Field) (text string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			body, found := strings.CutPrefix(c.Text, "//repro:nokey")
			if found {
				return strings.TrimSpace(body), c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// parseAnnotation validates "<name> — <reason>" against the field it
// is attached to.
func parseAnnotation(structName, fieldName, jsonName, text string, pos token.Pos) (*Annotation, *Problem) {
	name, reason := splitNameReason(text)
	if name == "" || reason == "" {
		return nil, &Problem{pos, fmt.Sprintf(
			"malformed //repro:nokey on %s.%s: want %q", structName, fieldName,
			"//repro:nokey <field> — <reason>")}
	}
	if !strings.EqualFold(name, fieldName) && name != jsonName {
		return nil, &Problem{pos, fmt.Sprintf(
			"//repro:nokey names %q but annotates field %s.%s (json %q); fix the name or move the annotation",
			name, structName, fieldName, jsonName)}
	}
	return &Annotation{Struct: structName, Field: fieldName, Name: name, Reason: reason, Pos: pos}, nil
}

// splitNameReason splits "<name> — <reason>" (em dash or "--").
func splitNameReason(text string) (name, reason string) {
	for _, sep := range []string{"—", "--"} {
		if i := strings.Index(text, sep); i >= 0 {
			return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+len(sep):])
		}
	}
	return strings.TrimSpace(text), ""
}

// jsonTagName extracts the json tag name from a struct tag literal.
func jsonTagName(tag *ast.BasicLit) string {
	if tag == nil {
		return ""
	}
	raw := strings.Trim(tag.Value, "`")
	v, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(v, ",")
	if name == "-" {
		return ""
	}
	return name
}
