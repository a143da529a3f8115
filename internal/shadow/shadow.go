// Package shadow provides the flat page table behind the byte-granular
// shadow memories of the dependence profiler (package profile) and the
// guarded-execution monitor (package guard). A shadow holds one cell of
// bookkeeping per simulated byte; the cell type is the client's.
package shadow

// Page geometry: a page shadows 4 KiB of simulated memory.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	PageMask = PageSize - 1
)

// Page is the shadow of one page of simulated memory.
type Page[C any] [PageSize]C

// Table is a flat page table over the simulated address space, indexed
// by addr>>PageBits. Observed addresses are bounds-checked before any
// hook fires, so they index the table directly. Pages allocate on first
// touch and live until Reset.
type Table[C any] struct {
	pages []*Page[C]
	// fills holds the value of every cell of a page that a Fill
	// covered whole before any access allocated it. The page allocates,
	// filled with that value, on its first touch.
	fills map[int64]C
}

// Page returns the page that shadows addr, allocating it on first
// touch, zeroed or filled with the value a Fill recorded for it. The
// table grows by append, so a rising address frontier costs amortized
// O(1) per page. Page calls no function, which keeps it cheap enough to
// inline into the callers' per-byte loops: the guard's replay looks up
// one cell per byte it checks, and an out-of-line call there shows in
// its run time.
func (t *Table[C]) Page(addr int64) *Page[C] {
	idx := addr >> PageBits
	for idx >= int64(len(t.pages)) {
		t.pages = append(t.pages, nil)
	}
	p := t.pages[idx]
	if p == nil {
		p = new(Page[C])
		if c, ok := t.fills[idx]; ok {
			for i := range p {
				p[i] = c
			}
		}
		t.pages[idx] = p
	}
	return p
}

// Span returns the cells that shadow the part of [addr, end) lying on
// addr's page, allocating the page on first touch. A caller walks a
// range of any length by advancing addr past each span it gets back.
func (t *Table[C]) Span(addr, end int64) []C {
	off := addr & PageMask
	return t.Page(addr)[off:min(PageSize, off+end-addr)]
}

// Fill sets every cell of [addr, end) to c. A page the range covers
// whole that is not yet allocated only records c, so filling a large
// range costs what its pages are later touched, not its size.
func (t *Table[C]) Fill(addr, end int64, c C) {
	for addr < end {
		idx := addr >> PageBits
		if addr&PageMask == 0 && end-addr >= PageSize &&
			(idx >= int64(len(t.pages)) || t.pages[idx] == nil) {
			if t.fills == nil {
				t.fills = map[int64]C{}
			}
			t.fills[idx] = c
			addr += PageSize
			continue
		}
		cs := t.Span(addr, end)
		for i := range cs {
			cs[i] = c
		}
		addr += int64(len(cs))
	}
}

// Reset drops every page and every recorded fill, so every cell reads
// as zero again.
func (t *Table[C]) Reset() { t.pages, t.fills = nil, nil }
