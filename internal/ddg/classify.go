package ddg

import "sort"

// Class is one access class: an equivalence class of memory accesses
// under the loop-independent-dependence relation (paper Definition 4).
type Class struct {
	ID      int
	Sites   []int // sorted
	Private bool  // thread-private per Definition 5

	// Diagnosis of why the class is or is not private.
	HasUpwardExposed   bool
	HasDownwardExposed bool
	HasCarriedFlow     bool
	HasCarriedAntiOut  bool

	// Commutative marks a shared class whose carried flow is entirely
	// reduction-shaped: every site is a commutative update under the
	// same operator (Options.CommSites) and every carried dependence
	// incident to the class stays inside it — no outside access the
	// profile saw reads or writes the locations mid-loop. Such a class
	// cannot be expanded, but each thread can update a private copy
	// and the copies merge after the loop. The profile makes it a
	// candidate only; expand's static checks decide.
	Commutative bool
	CommOp      CommOp
}

// Options tune the classification.
type Options struct {
	// RequireCarriedAntiOrOutput enforces Definition 5's condition 3:
	// a class is privatized only when at least one of its accesses is
	// involved in a loop-carried anti- or output dependence (i.e. the
	// expansion is actually needed to remove a dependence). Disabling
	// it is the relaxation the paper mentions after Definition 5,
	// trading memory for uniformity; it is benchmarked as an ablation.
	RequireCarriedAntiOrOutput bool

	// CommSites maps access-site IDs to the commutative-update operator
	// the frontend detected at the site (+=/-=/++/-- are CommAdd,
	// guarded min/max updates CommMin/CommMax). Classes whose every
	// site carries the same operator — and whose carried dependences
	// stay inside the class — are marked Commutative. Nil or empty
	// disables the marking.
	CommSites map[int]CommOp
}

// DefaultOptions matches the paper's Definition 5 exactly.
func DefaultOptions() Options {
	return Options{RequireCarriedAntiOrOutput: true}
}

// Classification is the partition of a loop's accesses into classes
// and the resulting shared/private split.
type Classification struct {
	Classes   []*Class
	siteClass map[int]*Class
}

// ClassOf returns the access class containing site, or nil.
func (c *Classification) ClassOf(site int) *Class { return c.siteClass[site] }

// Private reports whether site is a thread-private access
// (Definition 5). Sites not in the loop are shared.
func (c *Classification) Private(site int) bool {
	cl := c.siteClass[site]
	return cl != nil && cl.Private
}

// PrivateSites returns all private access sites, sorted.
func (c *Classification) PrivateSites() []int {
	var out []int
	for s, cl := range c.siteClass {
		if cl.Private {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// Classify partitions the accesses of g into access classes by
// union-find over loop-independent dependences (Definition 4), then
// marks each class thread-private or shared per Definition 5.
func Classify(g *Graph, opts Options) *Classification {
	// Union-find over sites.
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for site := range g.Sites {
		find(site)
	}
	for e := range g.edges {
		if !e.Carried {
			union(e.Src, e.Dst)
		}
	}

	groups := map[int][]int{}
	for site := range g.Sites {
		r := find(site)
		groups[r] = append(groups[r], site)
	}

	// Deterministic class order: by smallest member.
	roots := make([]int, 0, len(groups))
	for r := range groups {
		sort.Ints(groups[r])
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })

	cls := &Classification{siteClass: map[int]*Class{}}
	for i, r := range roots {
		c := &Class{ID: i + 1, Sites: groups[r]}
		for _, s := range c.Sites {
			if g.UpwardExposed[s] {
				c.HasUpwardExposed = true
			}
			if g.DownwardExposed[s] {
				c.HasDownwardExposed = true
			}
			if g.HasCarried(s, Flow) {
				c.HasCarriedFlow = true
			}
			if g.HasCarried(s, Anti) || g.HasCarried(s, Output) {
				c.HasCarriedAntiOut = true
			}
		}
		c.Private = !c.HasUpwardExposed && !c.HasDownwardExposed && !c.HasCarriedFlow
		if opts.RequireCarriedAntiOrOutput && !c.HasCarriedAntiOut {
			c.Private = false
		}
		for _, s := range c.Sites {
			cls.siteClass[s] = c
		}
		cls.Classes = append(cls.Classes, c)
	}
	if len(opts.CommSites) > 0 {
		for _, c := range cls.Classes {
			markCommutative(g, cls, c, opts.CommSites)
		}
	}
	return cls
}

// markCommutative decides whether a shared class is a privatizable
// reduction: it must carry a flow dependence (the accumulator pattern —
// a private class needs no merge machinery), every site must be a
// commutative update under one operator, and every carried dependence
// touching the class must stay inside it, which proves no outside
// access observes or overwrites the accumulator's locations mid-loop
// (e.g. a[i] += a[i-1] is rejected: the carried flow into the stencil
// read crosses the class boundary).
func markCommutative(g *Graph, cls *Classification, c *Class, comm map[int]CommOp) {
	if c.Private || !c.HasCarriedFlow {
		return
	}
	op := CommNone
	for _, s := range c.Sites {
		o := comm[s]
		if o == CommNone || (op != CommNone && o != op) {
			return
		}
		op = o
	}
	for e := range g.edges {
		if !e.Carried {
			continue
		}
		if (cls.siteClass[e.Src] == c) != (cls.siteClass[e.Dst] == c) {
			return
		}
	}
	c.Commutative, c.CommOp = true, op
}

// Breakdown categorizes the dynamic accesses of the loop for the
// paper's Figure 8: accesses free of any loop-carried dependence,
// expandable (thread-private) accesses, and accesses involved in a
// loop-carried dependence that cannot be removed by expansion.
type Breakdown struct {
	Free       int64 // free of loop-carried dependences
	Expandable int64 // thread-private per Definition 5
	Carried    int64 // remaining accesses with loop-carried dependences
	Total      int64
}

// BreakdownOf computes the Figure 8 categorization for g under cls.
func BreakdownOf(g *Graph, cls *Classification) Breakdown {
	var b Breakdown
	for site, n := range g.Sites {
		b.Total += n
		carried := g.HasCarried(site, Flow) || g.HasCarried(site, Anti) || g.HasCarried(site, Output)
		switch {
		case cls.Private(site):
			b.Expandable += n
		case carried:
			b.Carried += n
		default:
			b.Free += n
		}
	}
	return b
}
