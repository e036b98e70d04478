package precision

import "testing"

// FuzzParsePolicy pins the -precision parser's contract on arbitrary
// input: it never panics, and for every accepted string the canonical
// form is a fixed point — it parses back to a policy with the same
// String() — and parsing it keeps AllF32, so every spelling of a policy
// lands on one cache key with the right all-f32 classification. The seed
// corpus is in testdata/fuzz/FuzzParsePolicy.
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := ParsePolicy(canon)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) accepted, its canonical form %q rejected: %v", s, canon, err)
		}
		if got := q.String(); got != canon {
			t.Fatalf("ParsePolicy(%q): canonical form %q re-renders as %q", s, canon, got)
		}
		if q.AllF32() != p.AllF32() {
			t.Fatalf("ParsePolicy(%q): AllF32 %v, but %v after a round trip through %q", s, p.AllF32(), q.AllF32(), canon)
		}
	})
}
