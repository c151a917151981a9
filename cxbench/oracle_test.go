package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// figure5 is the attributed graph of Figure 5(a) in the paper, written out
// in the input file formats: a K4 on A–D, E adjacent to C and D, F pendant
// on E, G pendant on A, an isolated edge H–I and the isolated vertex J.
const figure5Edges = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 2\n4 3\n5 4\n6 0\n7 8\n"

const figure5Attrs = "0\tA\tw x y\n1\tB\tx\n2\tC\tx y\n3\tD\tx y z\n4\tE\ty z\n" +
	"5\tF\ty\n6\tG\tx y\n7\tH\ty z\n8\tI\tx\n9\tJ\tx\n"

func figure5(t *testing.T) *Oracle {
	t.Helper()
	o, err := ParseOracle(strings.NewReader(figure5Edges), strings.NewReader(figure5Attrs))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestFigure5CoreNumbers(t *testing.T) {
	o := figure5(t)
	want := []int32{3, 3, 3, 3, 2, 1, 1, 1, 1, 0}
	if !slices.Equal(o.Core, want) {
		t.Fatalf("core numbers %v, want %v", o.Core, want)
	}
}

// TestFigure5ACQ is the paper's worked example: q=A, k=2, S={w,x,y} gives
// {A,C,D} sharing {x,y}.
func TestFigure5ACQ(t *testing.T) {
	o := figure5(t)
	S, _ := o.WordIDs([]string{"w", "x", "y"})
	got := o.ACQ(o.ByName["A"], 2, S)
	if len(got) != 1 {
		t.Fatalf("got %d answers, want 1: %+v", len(got), got)
	}
	words := []string{}
	for _, w := range got[0].L {
		words = append(words, o.Words[w])
	}
	if !slices.Equal(got[0].V, []int32{0, 2, 3}) || !slices.Equal(words, []string{"x", "y"}) {
		t.Fatalf("got %v sharing %v, want [0 2 3] sharing [x y]", got[0].V, words)
	}
	if err := o.CheckCommunity(0, 2, S, words, got[0].V); err != nil {
		t.Fatalf("the oracle's own answer fails its check: %v", err)
	}
}

func TestCheckCommunityRejects(t *testing.T) {
	o := figure5(t)
	S, _ := o.WordIDs([]string{"w", "x", "y"})
	for name, c := range map[string]struct {
		shared []string
		v      []int32
	}{
		"not maximal":   {[]string{"x"}, []int32{0, 1, 2, 3}},
		"missing q":     {[]string{"x", "y"}, []int32{2, 3, 4}},
		"not the core":  {[]string{"x", "y"}, []int32{0, 2, 3, 6}},
		"outside S":     {[]string{"z"}, []int32{0, 2, 3}},
		"keywordless":   {nil, []int32{0, 1, 2, 3, 4}},
		"low degree":    {[]string{"x", "y"}, []int32{0, 2}},
		"unknown words": {[]string{"nope"}, []int32{0, 2, 3}},
	} {
		if err := o.CheckCommunity(0, 2, S, c.shared, c.v); err == nil {
			t.Errorf("%s: CheckCommunity accepted %v sharing %v", name, c.v, c.shared)
		}
	}
}

func TestKeywordlessFallback(t *testing.T) {
	o := figure5(t)
	S, _ := o.WordIDs([]string{"z"})
	got := o.ACQ(0, 3, S) // A lacks z: S∩W(A) is empty
	if len(got) != 1 || len(got[0].L) != 0 || !slices.Equal(got[0].V, []int32{0, 1, 2, 3}) {
		t.Fatalf("got %+v, want the keywordless K4", got)
	}
	if o.ACQ(4, 3, nil) != nil {
		t.Fatal("E has core 2, so k=3 must have no community")
	}
}

func TestCPJAndCMF(t *testing.T) {
	o := figure5(t)
	// A={w,x,y}, C={x,y}, D={x,y,z}: J(A,C)=2/3, J(A,D)=2/4, J(C,D)=2/3.
	if got, want := o.CPJ([]int32{0, 2, 3}), (2.0/3+0.5+2.0/3)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("CPJ = %v, want %v", got, want)
	}
	// Members other than A carry 2 of A's 3 keywords each.
	if got, want := o.CMF([]int32{0, 2, 3}, 0), 2.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("CMF = %v, want %v", got, want)
	}
}

func TestCheckCohesiveWithExtraEdges(t *testing.T) {
	o := figure5(t)
	if err := o.CheckCohesive([]int32{7, 8, 9}, 1, nil); err == nil {
		t.Fatal("J is isolated, so {H,I,J} is not connected")
	}
	extra := map[int32][]int32{8: {9}, 9: {8}}
	if err := o.CheckCohesive([]int32{7, 8, 9}, 1, extra); err != nil {
		t.Fatalf("with the added edge I–J: %v", err)
	}
}

func TestSingletonAdmissible(t *testing.T) {
	o := figure5(t)
	a := o.SingletonAdmissible(2)
	// At k=2, x alone admits {A,B,C,D} and y alone admits {A,C,D,E}.
	if a[0] != 2 || a[1] != 1 || a[4] != 1 || a[9] != 0 {
		t.Fatalf("admissible counts %v", a)
	}
}

func TestKCoreIgnoresPeelOrder(t *testing.T) {
	// A triangle with a pendant path: the 2-core is the triangle whatever
	// order the candidates come in.
	o, err := ParseOracle(strings.NewReader("0 1\n1 2\n2 0\n2 3\n3 4\n"), strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range [][]int32{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {3, 0, 4, 2, 1}} {
		if got := o.ConnectedKCore(cand, 2, 0); !slices.Equal(got, []int32{0, 1, 2}) {
			t.Fatalf("candidates %v: 2-core %v, want [0 1 2]", cand, got)
		}
	}
}
