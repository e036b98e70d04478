package workloads

import (
	"strconv"

	"mmbench/internal/mmnet"
	"mmbench/internal/resultcache"
)

// WeightSeed is the constant seed every profiled network's weights are
// drawn from: a model is a pure function of (workload, variant, scale
// flavour), which is what makes one built network shareable.
const WeightSeed = 42

// StoreBudget is the byte budget of a model store. A resident model
// costs its ParamBytes plus the GEMM panels its Linear weights have
// packed so far (see Get). The nine default-fusion paper-scale models
// total 232 MB of parameters and, once each has served an eager f32
// request, 136 MB of f32 panels (f16 panels are half that and i8 a
// quarter, kept only by models requested under such a policy: 470 MB
// with every model at all three), so a service that sticks to the
// defaults never evicts; all 56 variants total 756 MB of parameters
// alone, so one that roams them holds the most recently used.
const StoreBudget = 512 << 20

// Store builds each (workload, variant, scale flavour) network once and
// hands the same instance to every caller: a byte-budgeted LRU with
// singleflight, so N concurrent first requests for one model cost one
// Build. A store lives and dies with its owner (a CachedRunner, for its
// eager executions) — there is deliberately no process-wide instance.
//
// A nil *Store is valid and builds privately on every Get, which is how
// the store-less entry points (mmbench.Run and friends) share the code
// path of the cached ones.
type Store struct {
	cache *resultcache.Cache
}

// NewStore builds a store holding about budgetBytes of parameters;
// owners pass StoreBudget.
func NewStore(budgetBytes int64) *Store {
	return &Store{cache: resultcache.New(budgetBytes)}
}

// Get returns the variant's network, building it with WeightSeed on
// first use. Build errors (unknown workload or variant) are returned and
// never cached. A model larger than the whole budget is built and
// returned uncached; a model evicted while a caller still runs it stays
// alive until that caller drops it.
//
// Returned networks are FROZEN (mmnet.Network.Freeze): they are shared
// by every concurrent inference, so callers may only read them — Forward
// without a tape, plan.Compile, Params for inspection. Anything that
// writes parameters or gradients (training, optimizers, Loss with a
// tape) must Build its own private network instead; a taped operator
// over a frozen parameter panics.
//
// Because its weights can never change, a frozen network packs each
// Linear weight's GEMM panels once per precision, on the first eager
// forward that multiplies by it, and keeps them for as long as it lives.
// Each panel set is charged to the model's entry as it appears (the
// entry grows; least recently used neighbours are evicted if that
// overruns the budget), so analytic callers, which never multiply, are
// charged parameters only. A nil store's private networks are not
// frozen and keep nothing.
func (s *Store) Get(name, variant string, profile bool) (*mmnet.Network, error) {
	if s == nil {
		return Build(name, variant, profile, WeightSeed)
	}
	key := resultcache.Key(map[string]string{
		"workload": name,
		"variant":  variant,
		"paper":    strconv.FormatBool(profile),
	})
	v, err := s.cache.Do(key, func() (any, int64, error) {
		n, err := Build(name, variant, profile, WeightSeed)
		if err != nil {
			return nil, 0, err
		}
		n.Freeze(func(bytes int64) { s.cache.Grow(key, n, bytes) })
		return n, n.ParamBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mmnet.Network), nil
}

// StoreStats are a store's counters: Hits are lookups served by a
// resident model, Executions are builds, Bytes the resident footprint —
// parameters plus kept panels.
type StoreStats struct {
	resultcache.Stats
	// PackedBytes is the part of Bytes that is GEMM panels kept by
	// resident models, all precisions.
	PackedBytes int64 `json:"packed_bytes"`
}

// Stats snapshots the store's counters.
func (s *Store) Stats() StoreStats {
	st := s.cache.Stats()
	return StoreStats{Stats: st, PackedBytes: st.Grown}
}
