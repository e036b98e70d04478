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

// StoreBudget is the byte budget of a model store, measured in
// ParamBytes. The nine default-fusion paper-scale models total 232 MB,
// so a service that sticks to the defaults never evicts; all 56 variants
// total 756 MB, so one that roams them holds the most recently used.
const StoreBudget = 256 << 20

// Store builds each (workload, variant, scale flavour) network once and
// hands the same instance to every caller: a byte-budgeted LRU with
// singleflight, so N concurrent first requests for one model cost one
// Build. A store lives and dies with its owner (a CachedRunner, for its
// eager executions; the experiment drivers) — there is deliberately no
// process-wide instance.
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
// Returned networks are FROZEN: they are shared by every concurrent
// inference, so callers may only read them — Forward without a tape,
// plan.Compile, Params for inspection. Anything that writes parameters
// or gradients (training, optimizers, Loss with a tape) must Build its
// own private network instead.
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
		return n, n.ParamBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mmnet.Network), nil
}

// Stats snapshots the store's counters: Hits are lookups served by a
// resident model, Executions are builds, Bytes the resident parameter
// footprint.
func (s *Store) Stats() resultcache.Stats { return s.cache.Stats() }
