package main

import "testing"

func TestCanonicalFatStructOrder(t *testing.T) {
	a := "struct __fat_int {\n    int *pointer;\n};\n\nstruct __fat_short {\n    short *pointer;\n};\n\nint N = 4;\n"
	b := "struct __fat_short {\n    short *pointer;\n};\n\nstruct __fat_int {\n    int *pointer;\n};\n\nint N = 4;\n"
	if canonical(a) != canonical(b) {
		t.Error("fat-pointer declaration order changed the canonical form")
	}
	c := "struct __fat_int {\n    int *pointer;\n};\n\nstruct __fat_short {\n    short *pointer;\n};\n\nint N = 5;\n"
	if canonical(a) == canonical(c) {
		t.Error("a change outside the fat-pointer declarations was ignored")
	}
	d := "int N = 4;\n\nstruct __fat_short {\n};\n\nstruct __fat_int {\n};\n"
	e := "int N = 4;\n\nstruct __fat_int {\n};\n\nstruct __fat_short {\n};\n"
	if canonical(d) == canonical(e) {
		t.Error("declarations after the leading run were reordered")
	}
}
