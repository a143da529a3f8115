package profile

import (
	"reflect"
	"strings"
	"testing"

	"gdsx/internal/interp"
)

// TestTouchedAfterAddressReuse pins the origins recorded for a site
// whose address is recycled inside the loop: the block it reads is
// freed, the site reads the freed bytes once, and a different
// allocation site then hands out the same address, through malloc or
// through realloc. A block lookup remembered from before the free must
// not answer for the later reads, so the site lists the freed read as
// "other" and both heap sites.
func TestTouchedAfterAddressReuse(t *testing.T) {
	const prog = `
int main() {
    int i;
    int s = 0;
    int *q = (int*)malloc(8);
    int *p = (int*)malloc(16);
    p[0] = 7;
    parallel for (i = 0; i < 3; i++) {
        s = s + p[0];
        if (i == 0) {
            free(p);
        }
        if (i == 1) {
            p = REALLOC;
            p[0] = 5;
        }
    }
    print_int(s);
    return 0;
}`
	for _, tc := range []struct {
		name, realloc string
		want          map[Origin]bool
	}{
		// q is heap site 1, the first p site 2, the reallocation site 3.
		{"malloc", "(int*)malloc(16)", map[Origin]bool{
			{Kind: OriginHeap, Site: 2}: true, {Kind: OriginOther}: true, {Kind: OriginHeap, Site: 3}: true}},
		{"realloc", "(int*)realloc(q, 16)", map[Origin]bool{
			{Kind: OriginHeap, Site: 2}: true, {Kind: OriginOther}: true, {Kind: OriginHeap, Site: 3}: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.Replace(prog, "REALLOC", tc.realloc, 1)
			p, info, loopID := compile(t, src)
			res, err := Loop(p, info, loopID, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.Output != "19" {
				t.Fatalf("output %q, want 19: the freed read must see 7 and the reused block 5", res.Run.Output)
			}
			site := 0
			for id, as := range info.Accesses {
				if !as.IsStore && as.Text == "p[0]" && (site == 0 || id < site) {
					site = id
				}
			}
			if got := res.Touched[site]; !reflect.DeepEqual(got, tc.want) {
				t.Errorf("site %d touched %v, want %v", site, got, tc.want)
			}
		})
	}
}
