package shadow

import "testing"

type cell struct{ a, b int32 }

func TestCellsPersistAndGrow(t *testing.T) {
	var tab Table[cell]
	cellAt := func(addr int64) *cell { return &tab.Page(addr)[addr&PageMask] }
	addrs := []int64{0, 1, PageMask, PageSize, 7*PageSize + 5, 1<<26 - 1, 3}
	for i, a := range addrs {
		cellAt(a).a = int32(i + 1)
	}
	for i, a := range addrs {
		if got := cellAt(a).a; got != int32(i+1) {
			t.Errorf("cell %d = %d, want %d", a, got, i+1)
		}
	}
	if got := cellAt(2).a; got != 0 {
		t.Errorf("untouched cell = %d, want 0", got)
	}
	if tab.Page(PageSize+9) != tab.Page(2*PageSize-1) || tab.Page(PageSize) == tab.Page(0) {
		t.Error("Page does not map addresses to their page")
	}
	tab.Reset()
	for _, a := range addrs {
		if got := *cellAt(a); got != (cell{}) {
			t.Errorf("cell %d after Reset = %+v, want zero", a, got)
		}
	}
}

func TestSpanWalksPages(t *testing.T) {
	var tab Table[cell]
	lo, hi := int64(PageSize-3), int64(2*PageSize+5)
	var spans []int
	for a := lo; a < hi; {
		cs := tab.Span(a, hi)
		if &cs[0] != &tab.Page(a)[a&PageMask] {
			t.Fatalf("span at %d does not start at its cell", a)
		}
		for i := range cs {
			cs[i].b = 1
		}
		spans = append(spans, len(cs))
		a += int64(len(cs))
	}
	if want := []int{3, PageSize, 5}; len(spans) != 3 || spans[0] != want[0] || spans[1] != want[1] || spans[2] != want[2] {
		t.Errorf("span lengths %v, want %v", spans, want)
	}
	for a := lo - 1; a <= hi; a++ {
		in := a >= lo && a < hi
		if got := tab.Page(a)[a&PageMask].b == 1; got != in {
			t.Errorf("cell %d marked %v, want %v", a, got, in)
		}
	}
}

func TestFillIsLazyOnWholePages(t *testing.T) {
	var tab Table[cell]
	pre := tab.Page(3 * PageSize) // allocated before the fill
	pre[7] = cell{a: 9}
	lo, hi := int64(PageSize-2), int64(6*PageSize+3)
	v := cell{a: 5, b: 6}
	tab.Fill(lo, hi, v)
	// Pages 1, 2, 4 and 5 are covered whole and untouched: no page
	// allocates for them until an access does.
	for _, pg := range []int{1, 2, 4, 5} {
		if pg < len(tab.pages) && tab.pages[pg] != nil {
			t.Errorf("page %d allocated by a fill", pg)
		}
	}
	for a := lo - 1; a <= hi; a++ {
		want := cell{}
		if a >= lo && a < hi {
			want = v
		}
		if got := tab.Page(a)[a&PageMask]; got != want {
			t.Fatalf("cell %d = %+v, want %+v", a, got, want)
		}
	}
	if &tab.Page(3 * PageSize)[0] != &pre[0] {
		t.Error("a fill replaced an allocated page")
	}
	tab.Fill(PageSize, 2*PageSize, cell{a: 1})
	tab.Fill(4*PageSize, 5*PageSize, cell{a: 2})
	tab.Reset()
	tab.Fill(PageSize, 2*PageSize, cell{a: 3})
	tab.Reset()
	for _, a := range []int64{PageSize, 4 * PageSize} {
		if got := tab.Page(a)[0]; got != (cell{}) {
			t.Errorf("cell %d after Reset = %+v, want zero", a, got)
		}
	}
}
