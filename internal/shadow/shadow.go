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
}

// Page returns the page that shadows addr, allocating it (zeroed) on
// first touch. The table grows by append, so a rising address frontier
// costs amortized O(1) per page. Page calls no function, which keeps it
// cheap enough to inline into the callers' per-byte loops: the guard's
// replay looks up one cell per byte it checks, and an out-of-line call
// there shows in its run time.
func (t *Table[C]) Page(addr int64) *Page[C] {
	idx := addr >> PageBits
	for idx >= int64(len(t.pages)) {
		t.pages = append(t.pages, nil)
	}
	p := t.pages[idx]
	if p == nil {
		p = new(Page[C])
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

// Reset drops every page, so every cell reads as zero again.
func (t *Table[C]) Reset() { t.pages = nil }
