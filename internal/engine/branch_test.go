package engine

import "testing"

func TestBranchWorkers(t *testing.T) {
	cases := []struct {
		total, branches, want int
	}{
		{8, 1, 8},  // single branch keeps the whole budget
		{8, 2, 4},  // even split
		{8, 3, 2},  // floor division
		{8, 16, 1}, // more branches than workers clamps to 1
		{1, 4, 1},  // serial parent stays serial per branch
		{2, 2, 1},  // exact exhaustion
		{16, 4, 4}, // larger budget
		{3, 0, 3},  // degenerate branch counts keep the budget
		{3, -1, 3}, // negative likewise
		{0, 3, 1},  // nil/zero-worker parent still yields a valid engine
	}
	for _, tc := range cases {
		if got := BranchWorkers(tc.total, tc.branches); got != tc.want {
			t.Errorf("BranchWorkers(%d, %d) = %d, want %d", tc.total, tc.branches, got, tc.want)
		}
	}
}

func TestForBranchesBudgetAndCaching(t *testing.T) {
	parent := New(8)
	defer parent.Close()

	engines := ForBranches(parent, 3)
	if len(engines) != 3 {
		t.Fatalf("got %d engines, want 3", len(engines))
	}
	var total int
	for i, e := range engines {
		if e == nil {
			t.Fatalf("engine %d is nil", i)
		}
		if e.Workers() != 2 {
			t.Fatalf("engine %d has %d workers, want 2", i, e.Workers())
		}
		total += e.Workers()
	}
	if total > parent.Workers() {
		t.Fatalf("combined branch workers %d exceed parent budget %d", total, parent.Workers())
	}
	// Distinct branches must get distinct engines (distinct pools).
	if engines[0] == engines[1] || engines[1] == engines[2] {
		t.Fatal("branch engines are not distinct")
	}
	// The same width resolves to the same cached engines, including a
	// narrower join that reuses a prefix of the cached slice.
	again := ForBranches(parent, 3)
	if again[0] != engines[0] || again[1] != engines[1] || again[2] != engines[2] {
		t.Fatal("branch engines are not cached per width")
	}
	parent4 := New(4)
	defer parent4.Close()
	two := ForBranches(parent4, 2) // width 2 again
	if two[0] != engines[0] || two[1] != engines[1] {
		t.Fatal("equal widths from different parents must share cached engines")
	}
}

func TestForBranchesRunsWork(t *testing.T) {
	parent := New(4)
	defer parent.Close()
	engines := ForBranches(parent, 4) // width 1: inline execution
	out := make([]int, 4)
	for i, e := range engines {
		e.ParallelFor(16, 4, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				out[i]++
			}
		})
	}
	for i, v := range out {
		if v != 16 {
			t.Fatalf("branch %d executed %d iterations, want 16", i, v)
		}
	}
	bs := BranchEngineStats()
	if bs.Calls < 4 || bs.Tasks < 4 {
		t.Fatalf("branch engine stats missed the work: %+v", bs)
	}
	// Workers reports the widest single join's budget, not a lifetime
	// sum across every width ever cached.
	wantWorkers := 0
	branchEngines.mu.Lock()
	for w, list := range branchEngines.byWidth {
		if b := w * len(list); b > wantWorkers {
			wantWorkers = b
		}
	}
	branchEngines.mu.Unlock()
	if bs.Workers != wantWorkers {
		t.Fatalf("branch stats workers %d, want widest-join budget %d", bs.Workers, wantWorkers)
	}
	ts := TotalStats()
	if ts.Calls < bs.Calls || ts.Tasks < bs.Tasks {
		t.Fatalf("TotalStats %+v does not cover branch stats %+v", ts, bs)
	}
	if ts.Workers != Default().Stats().Workers {
		t.Fatalf("TotalStats workers %d, want the default engine's %d", ts.Workers, Default().Stats().Workers)
	}
}

// TestForBranchesSplitsPoolBudget checks every cached sub-engine —
// across all widths — holds a share of one idle-retention budget
// instead of the full default, so the branch-engine cache cannot
// multiply the process's idle scratch.
func TestForBranchesSplitsPoolBudget(t *testing.T) {
	parent := New(2)
	defer parent.Close()
	ForBranches(parent, 2) // ensure a width-1 family exists too
	branchEngines.mu.Lock()
	total := 0
	for _, l := range branchEngines.byWidth {
		total += len(l)
	}
	var budgetSum int64
	for _, l := range branchEngines.byWidth {
		for _, e := range l {
			e.st.pool.mu.Lock()
			budgetSum += e.st.pool.budget
			e.st.pool.mu.Unlock()
		}
	}
	branchEngines.mu.Unlock()
	if total < 2 {
		t.Fatalf("expected cached sub-engines, got %d", total)
	}
	if budgetSum > maxPoolBytes {
		t.Fatalf("cache-wide pool budget %d exceeds the single-engine bound %d", budgetSum, int64(maxPoolBytes))
	}

	// Retention respects a reduced budget; exercise eviction on a local
	// engine so the shared cache is left untouched.
	e := New(1)
	defer e.Close()
	e.setPoolBudget(int64(minBucket) * 4) // room for exactly one min bucket
	a, b := e.Get(minBucket), e.Get(minBucket)
	e.Put(a)
	e.Put(b) // over budget: must be dropped, not retained
	e.st.pool.mu.Lock()
	retained := e.st.pool.retained
	e.st.pool.mu.Unlock()
	if retained > int64(minBucket)*4 {
		t.Fatalf("retained %d bytes over the %d budget", retained, minBucket*4)
	}
	e.setPoolBudget(0) // evicts everything
	e.st.pool.mu.Lock()
	retained = e.st.pool.retained
	e.st.pool.mu.Unlock()
	if retained != 0 {
		t.Fatalf("retained %d bytes after zero-budget eviction", retained)
	}
}
