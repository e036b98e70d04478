package resultcache

import (
	"maps"
	"testing"
)

// FuzzKey pins the cache's guarantee that one config's key never returns
// another config's report: two field maps built from fuzzed strings get
// equal Keys if and only if the maps are equal, whatever '=', ';' and
// '\' the names and values contain. The seed corpus, in
// testdata/fuzz/FuzzKey, holds the separator-smuggling shapes escaping
// exists to defeat.
func FuzzKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2, k3, v3, k4, v4 string) {
		a := map[string]string{k1: v1, k2: v2}
		b := map[string]string{k3: v3, k4: v4}
		ka, kb := Key(a), Key(b)
		if (ka == kb) != maps.Equal(a, b) {
			t.Fatalf("maps %q and %q (equal: %v) have keys %q and %q", a, b, maps.Equal(a, b), ka, kb)
		}
	})
}
