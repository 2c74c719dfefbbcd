package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ev8pred/internal/cache"
	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// testSweep is the representative sweep the partition/merge tests run: a
// gshare history sweep, 4 values x 2 benchmarks = 8 cells.
func testSweep(t *testing.T) (sweep.Factory, []int, []workload.Profile, int64, sim.Options) {
	t.Helper()
	factory := func(h int) (predictor.Predictor, error) { return gshare.New(1<<12, h) }
	xs := []int{6, 8, 10, 12}
	var profs []workload.Profile
	for _, name := range []string{"gcc", "go"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	return factory, xs, profs, 40_000, sim.Options{Mode: frontend.ModeGhist(), Warmup: 100}
}

func testPlan(t *testing.T) *Plan {
	t.Helper()
	factory, xs, profs, instr, opts := testSweep(t)
	p, err := NewPlan(factory, xs, profs, instr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseSpec(t *testing.T) {
	for _, good := range []struct {
		in   string
		want Spec
	}{
		{"0/1", Spec{0, 1}}, {"0/3", Spec{0, 3}}, {"2/3", Spec{2, 3}}, {"7/8", Spec{7, 8}},
	} {
		got, err := ParseSpec(good.in)
		if err != nil || got != good.want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", good.in, got, err, good.want)
		}
		if got.String() != good.in {
			t.Errorf("Spec%+v.String() = %q, want %q", got, got.String(), good.in)
		}
	}
	// Every rejected form — including the trailing-garbage and whitespace
	// spellings fmt.Sscanf used to accept silently — must fail with the
	// typed *SpecError, never a panic or a silently defaulted shard.
	for _, bad := range []string{
		"", "3", "3/3", "4/3", "-1/3", "a/b", "1/0", "1/-2",
		"0/3x", "x0/3", "1/2/3", " 0/3", "0/ 3", "0/3 ", "0.5/3", "0x1/3", "/3", "0/",
	} {
		_, err := ParseSpec(bad)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("ParseSpec(%q) error %T is not *shard.SpecError", bad, err)
		} else if se.Spec != bad {
			t.Errorf("ParseSpec(%q) error names spec %q", bad, se.Spec)
		}
	}
}

// TestAssignProperties pins the partitioner's contract: deterministic,
// in-range, reasonably balanced, and minimally disrupted by resharding —
// growing N by one moves cells only TO the new shard, never between
// surviving shards (the rendezvous-hashing property the "reshaping N
// reassigns minimally" guarantee rests on).
func TestAssignProperties(t *testing.T) {
	const cells = 2000
	hashes := make([]string, cells)
	for i := range hashes {
		sum := sha256.Sum256([]byte(fmt.Sprintf("cell-%d", i)))
		hashes[i] = hex.EncodeToString(sum[:])
	}

	for n := 1; n <= 8; n++ {
		counts := make([]int, n)
		for _, h := range hashes {
			k := Assign(h, n)
			if k < 0 || k >= n {
				t.Fatalf("Assign(%s, %d) = %d out of range", h[:8], n, k)
			}
			if k != Assign(h, n) {
				t.Fatalf("Assign(%s, %d) not deterministic", h[:8], n)
			}
			counts[k]++
		}
		for k, c := range counts {
			// Expect cells/n per shard; a shard under a third of that
			// means the weights are badly skewed.
			if c < cells/n/3 {
				t.Errorf("n=%d: shard %d owns only %d of %d cells", n, k, c, cells)
			}
		}
	}

	for n := 1; n < 8; n++ {
		for _, h := range hashes {
			before, after := Assign(h, n), Assign(h, n+1)
			if before != after && after != n {
				t.Errorf("resharding %d->%d moved %s between surviving shards (%d -> %d)", n, n+1, h[:8], before, after)
			}
		}
	}
}

// TestPlanDeterministicAndOrdered pins that the plan is a pure function
// of the sweep definition — same cells, same order, same ID on every
// participant — and that its order is sweep order (parameter-major).
func TestPlanDeterministicAndOrdered(t *testing.T) {
	_, xs, profs, _, _ := testSweep(t)
	a, b := testPlan(t), testPlan(t)
	if a.ID != b.ID {
		t.Fatalf("plan ID not deterministic: %s vs %s", a.ID, b.ID)
	}
	if len(a.Cells) != len(xs)*len(profs) {
		t.Fatalf("%d cells, want %d", len(a.Cells), len(xs)*len(profs))
	}
	seen := map[string]bool{}
	for i, c := range a.Cells {
		if c.Index != i {
			t.Errorf("cell %d records index %d", i, c.Index)
		}
		if c.X != xs[i/len(profs)] || c.Workload != profs[i%len(profs)].Name {
			t.Errorf("cell %d = %s, want x=%d/%s", i, c.Name(), xs[i/len(profs)], profs[i%len(profs)].Name)
		}
		if c.Hash != b.Cells[i].Hash {
			t.Errorf("cell %d hash differs across identical plans", i)
		}
		if seen[c.Hash] {
			t.Errorf("cell %d (%s) collides with another cell", i, c.Name())
		}
		seen[c.Hash] = true
	}

	// A different budget is a different sweep: different hashes and ID.
	factory, _, _, instr, opts := testSweep(t)
	other, err := NewPlan(factory, xs, profs, instr+1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == a.ID {
		t.Error("changing the instruction budget did not change the plan ID")
	}
}

// TestPlanRejectsUncacheable: a predictor with no canonical configuration
// key cannot travel through the shared store, so planning must fail
// loudly, not silently drop or duplicate the cell.
func TestPlanRejectsUncacheable(t *testing.T) {
	_, xs, profs, instr, opts := testSweep(t)
	custom := func(int) (predictor.Predictor, error) {
		cfg := core.Config256K()
		std := core.MustNew(cfg).Config().Indexes
		cfg.Indexes = func(info *history.Info) [core.NumBanks]uint64 { return std(info) }
		cfg.Name = "2bcg-custom-idx"
		return core.New(cfg)
	}
	_, err := NewPlan(custom, xs, profs, instr, opts)
	if err == nil || !strings.Contains(err.Error(), "no canonical configuration key") {
		t.Fatalf("uncacheable sweep accepted (err=%v)", err)
	}
}

// runAll runs every shard of an N-way partition sequentially in the given
// order, sharing one store directory and one manifest directory.
func runAll(t *testing.T, p *Plan, n int, order []int, instr int64, cacheDir, manifestDir string) {
	t.Helper()
	for _, k := range order {
		store, err := cache.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Index: k, Count: n}
		if _, err := RunShard(context.Background(), p, spec, instr, sim.PoolOptions{Workers: 2, Cache: store}, manifestDir); err != nil {
			t.Fatalf("shard %s: %v", spec, err)
		}
	}
}

// TestShardMergeMatchesSingleProcess is the acceptance differential: for
// N in {1, 3, 8}, with shards run in an arbitrary order, the merged
// results equal the single-process sweep.RunPool results exactly, and the
// partition covers every cell exactly once.
func TestShardMergeMatchesSingleProcess(t *testing.T) {
	factory, xs, profs, instr, opts := testSweep(t)
	want, err := sweep.RunPool(factory, xs, profs, instr, opts, sim.PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			p := testPlan(t)

			owned := 0
			for k := 0; k < n; k++ {
				owned += len(p.Owned(Spec{Index: k, Count: n}))
			}
			if owned != len(p.Cells) {
				t.Fatalf("partition covers %d of %d cells", owned, len(p.Cells))
			}

			cacheDir, manifestDir := t.TempDir(), t.TempDir()
			order := make([]int, n)
			for k := range order {
				order[k] = n - 1 - k // reverse order: completion order must not matter
			}
			runAll(t, p, n, order, instr, cacheDir, manifestDir)

			store, err := cache.Open(cacheDir)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := Merge(p, manifestDir, store)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := sweep.Points(xs, profs, rs)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != len(want) {
				t.Fatalf("%d merged points, want %d", len(pts), len(want))
			}
			for i := range pts {
				if pts[i].X != want[i].X || pts[i].Mean != want[i].Mean {
					t.Fatalf("point %d diverged: merged %+v single-process %+v", i, pts[i], want[i])
				}
				for j := range pts[i].Results {
					if pts[i].Results[j] != want[i].Results[j] {
						t.Fatalf("point %d result %d diverged:\nmerged  %+v\nserial  %+v", i, j, pts[i].Results[j], want[i].Results[j])
					}
				}
			}
		})
	}
}

// TestShardCrashRecovery emulates a worker killed mid-run: some of its
// cells are in the store, no manifest exists. The re-run must answer
// every completed cell from the store (hits, zero re-simulation), compute
// only the remainder, and the merge must then succeed.
func TestShardCrashRecovery(t *testing.T) {
	_, _, _, instr, _ := testSweep(t)
	const n = 3
	p := testPlan(t)
	var victim Spec
	for k := 0; k < n; k++ {
		if s := (Spec{Index: k, Count: n}); len(p.Owned(s)) >= 2 {
			victim = s
			break
		}
	}
	owned := p.Owned(victim)
	if len(owned) < 2 {
		t.Fatalf("no shard owns >= 2 of the %d cells", len(p.Cells))
	}

	cacheDir, manifestDir := t.TempDir(), t.TempDir()

	// The killed run: half the owned cells computed and stored, then death
	// — no manifest.
	firstStore, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	partial := make([]sim.Cell, 0, len(owned)/2)
	for _, c := range owned[:len(owned)/2] {
		partial = append(partial, c.Sim)
	}
	if _, err := sim.RunCells(context.Background(), partial, instr, sim.PoolOptions{Workers: 1, Cache: firstStore}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ManifestPath(manifestDir, victim)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest exists before the re-run (stat: %v)", err)
	}

	// The re-run: a fresh store handle, so its counters measure exactly
	// the recovery.
	rerunStore, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(context.Background(), p, victim, instr, sim.PoolOptions{Workers: 2, Cache: rerunStore}, manifestDir); err != nil {
		t.Fatal(err)
	}
	hits, misses, readErrs, puts := rerunStore.Counts()
	if int(hits) != len(partial) || int(misses) != len(owned)-len(partial) || readErrs != 0 || int(puts) != len(owned)-len(partial) {
		t.Errorf("re-run counts hits=%d misses=%d readErrs=%d puts=%d, want %d/%d/0/%d (completed cells from cache only)",
			hits, misses, readErrs, puts, len(partial), len(owned)-len(partial), len(owned)-len(partial))
	}

	// The other shards complete normally; the merge must succeed.
	var rest []int
	for k := 0; k < n; k++ {
		if k != victim.Index {
			rest = append(rest, k)
		}
	}
	runAll(t, p, n, rest, instr, cacheDir, manifestDir)
	store, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(p, manifestDir, store); err != nil {
		t.Fatalf("merge after recovery: %v", err)
	}
}

// TestMergeMissingShardFailsLoudly: a merge over an incomplete sweep must
// fail with a typed *MissingError naming exactly the absent shard's
// cells — and succeed once that shard runs.
func TestMergeMissingShardFailsLoudly(t *testing.T) {
	_, _, _, instr, _ := testSweep(t)
	const n = 3
	p := testPlan(t)
	var absent Spec
	for k := n - 1; k >= 0; k-- {
		if s := (Spec{Index: k, Count: n}); len(p.Owned(s)) > 0 {
			absent = s
			break
		}
	}
	cacheDir, manifestDir := t.TempDir(), t.TempDir()
	var rest []int
	for k := 0; k < n; k++ {
		if k != absent.Index {
			rest = append(rest, k)
		}
	}
	runAll(t, p, n, rest, instr, cacheDir, manifestDir)

	store, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Merge(p, manifestDir, store)
	var missing *MissingError
	if !errors.As(err, &missing) {
		t.Fatalf("incomplete merge returned %v, want *MissingError", err)
	}
	if missing.Shards != n || len(missing.Missing) != len(p.Owned(absent)) {
		t.Fatalf("MissingError %+v, want %d cells of shard %s", missing, len(p.Owned(absent)), absent)
	}
	for _, m := range missing.Missing {
		if m.Shard != absent.Index {
			t.Errorf("missing cell %s attributed to shard %d, want %d", m.Cell, m.Shard, absent.Index)
		}
		if !strings.Contains(err.Error(), m.Cell) && len(missing.Missing) <= 10 {
			t.Errorf("error text does not name %s: %v", m.Cell, err)
		}
	}

	runAll(t, p, n, []int{absent.Index}, instr, cacheDir, manifestDir)
	if _, err := Merge(p, manifestDir, store); err != nil {
		t.Fatalf("merge after completing the absent shard: %v", err)
	}
}

// TestMergeRefusesForeignAndMixedManifests: manifests from a different
// sweep, or from differently-partitioned runs of the same sweep, must be
// refused — never silently combined.
func TestMergeRefusesForeignAndMixedManifests(t *testing.T) {
	factory, xs, profs, instr, opts := testSweep(t)
	p := testPlan(t)
	cacheDir, manifestDir := t.TempDir(), t.TempDir()
	runAll(t, p, 1, []int{0}, instr, cacheDir, manifestDir)
	store, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}

	// A plan over a different sweep refuses this directory's manifests.
	other, err := NewPlan(factory, xs, profs, instr+1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(other, manifestDir, store); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("foreign manifest accepted (err=%v)", err)
	}

	// A second, differently-partitioned manifest set in the same directory
	// is a mixed merge and must be refused.
	if err := WriteManifest(manifestDir, p.Manifest(Spec{Index: 0, Count: 2})); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(p, manifestDir, store); err == nil || !strings.Contains(err.Error(), "mixed shard counts") {
		t.Errorf("mixed shard counts accepted (err=%v)", err)
	}
}

// TestManifestRoundTrip pins the on-disk format: write, read back,
// version check, and the empty-directory and malformed cases.
func TestManifestRoundTrip(t *testing.T) {
	p := testPlan(t)
	dir := t.TempDir()
	spec := Spec{Index: 1, Count: 3}
	want := p.Manifest(spec)
	if err := WriteManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadManifests(dir)
	if err != nil || len(ms) != 1 {
		t.Fatalf("ReadManifests: %v (%d manifests)", err, len(ms))
	}
	got := ms[0]
	if got.SweepID != want.SweepID || got.Shard != spec.Index || got.Shards != spec.Count || len(got.Cells) != len(want.Cells) {
		t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", got, want)
	}
	for i := range got.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Errorf("cell %d changed: %+v vs %+v", i, got.Cells[i], want.Cells[i])
		}
	}

	if ms, err := ReadManifests(t.TempDir()); err != nil || len(ms) != 0 {
		t.Errorf("empty dir: %v (%d manifests)", err, len(ms))
	}
	bad := filepath.Join(dir, "shard-9-of-9.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifests(dir); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("malformed manifest tolerated (err=%v)", err)
	}
}
