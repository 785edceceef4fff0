package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/fill"
	"repro/internal/order"
)

func randomSet(r *rand.Rand, width, n int, xProb float64) *cube.Set {
	s := cube.NewSet(width)
	for v := 0; v < n; v++ {
		c := make(cube.Cube, width)
		for i := range c {
			switch {
			case r.Float64() < xProb:
				c[i] = cube.X
			case r.Intn(2) == 0:
				c[i] = cube.Zero
			default:
				c[i] = cube.One
			}
		}
		s.Append(c)
	}
	return s
}

// fillSet runs fl and unpacks its result, for test fillers that wrap
// another filler inside a fill.Func.
func fillSet(fl fill.Filler, s *cube.Set) (*cube.Set, error) {
	r, err := fl.Fill(cube.Pack(s), nil)
	if err != nil {
		return nil, err
	}
	return r.Set(), nil
}

func dpJobs(t *testing.T, n int) []Job {
	t.Helper()
	r := rand.New(rand.NewSource(17))
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name:   fmt.Sprintf("job%d", i),
			Set:    randomSet(r, 16+r.Intn(32), 8+r.Intn(24), 0.6),
			Filler: fill.DP(),
		}
	}
	return jobs
}

// serialReference runs the jobs one by one on the calling goroutine.
func serialReference(t *testing.T, jobs []Job) []Result {
	t.Helper()
	e := New(1)
	return e.Run(context.Background(), jobs)
}

func TestRunZeroJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		res := New(workers).Run(context.Background(), nil)
		if len(res) != 0 {
			t.Fatalf("workers=%d: %d results for zero jobs", workers, len(res))
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := dpJobs(t, 11)
	want := serialReference(t, jobs)
	// One worker, workers == jobs, workers > jobs, machine default.
	for _, workers := range []int{1, 11, 64, 0} {
		got := New(workers).Run(context.Background(), jobs)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, got[i].Err)
			}
			if got[i].Job != i || got[i].Name != jobs[i].Name {
				t.Fatalf("workers=%d: result %d out of order: %+v", workers, i, got[i])
			}
			if !got[i].Filled.Unpack().Equal(want[i].Filled.Unpack()) {
				t.Fatalf("workers=%d job %d: filled set differs from serial run", workers, i)
			}
			if got[i].Peak != want[i].Peak || got[i].Total != want[i].Total {
				t.Fatalf("workers=%d job %d: peak/total differ", workers, i)
			}
		}
	}
}

// TestRunResultProfile: the per-cycle profile a result carries is the
// filled set's own toggle profile, counted once in the same pass as
// Peak and Total (nil when a set has fewer than two vectors).
func TestRunResultProfile(t *testing.T) {
	jobs := append(dpJobs(t, 5), Job{Name: "single", Set: cube.MustParseSet("0X1"), Filler: fill.DP()})
	for i, r := range New(2).Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want := r.Filled.ToggleProfile()
		if !slices.Equal(r.Profile, want) || (r.Profile == nil) != (want == nil) {
			t.Fatalf("job %d: Profile %v, want Filled.ToggleProfile() %v", i, r.Profile, want)
		}
		if r.Peak != slices.Max(append([]int{0}, r.Profile...)) {
			t.Fatalf("job %d: peak %d disagrees with profile %v", i, r.Peak, r.Profile)
		}
	}
}

func TestRunJobErrorIsolated(t *testing.T) {
	jobs := dpJobs(t, 6)
	boom := errors.New("boom")
	jobs[2].Filler = fill.Func{FillName: "bad-fill", F: func(*cube.Set) (*cube.Set, error) {
		return nil, boom
	}}
	res := New(4).Run(context.Background(), jobs)
	for i, r := range res {
		if i == 2 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("job 2 error = %v, want wrapped boom", r.Err)
			}
			if r.Filled != nil {
				t.Fatal("failed job carries a filled set")
			}
			if !strings.Contains(r.Err.Error(), "bad-fill") {
				t.Fatalf("error %v does not name the filler", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d failed alongside job 2: %v", i, r.Err)
		}
		if r.Filled == nil || !r.Filled.Unpack().FullySpecified() {
			t.Fatalf("job %d did not complete", i)
		}
	}
	if FirstErr(res) == nil {
		t.Fatal("FirstErr missed the failure")
	}
	if FirstErr(res[:2]) != nil {
		t.Fatal("FirstErr reported a failure for clean jobs")
	}
}

func TestRunPanicIsolated(t *testing.T) {
	jobs := dpJobs(t, 4)
	jobs[1].Filler = fill.Func{FillName: "panicky", F: func(*cube.Set) (*cube.Set, error) {
		panic("kaboom")
	}}
	res := New(2).Run(context.Background(), jobs)
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", res[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if res[i].Err != nil {
			t.Fatalf("job %d failed alongside the panic: %v", i, res[i].Err)
		}
	}
}

func TestRunInvalidJobs(t *testing.T) {
	jobs := []Job{
		{Name: "no-set", Filler: fill.DP()},
		{Name: "no-filler", Set: cube.MustParseSet("0X", "X1")},
	}
	res := New(2).Run(context.Background(), jobs)
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("invalid job %d accepted", i)
		}
	}
}

func TestRunWithOrderer(t *testing.T) {
	jobs := dpJobs(t, 3)
	for i := range jobs {
		jobs[i].Orderer = order.Interleaved()
	}
	res := New(0).Run(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if len(r.Perm) != jobs[i].Set.Len() {
			t.Fatalf("job %d: perm length %d, want %d", i, len(r.Perm), jobs[i].Set.Len())
		}
		// The filled set must complete the reordered input.
		if !jobs[i].Set.Reorder(r.Perm).Covers(r.Filled.Unpack()) {
			t.Fatalf("job %d: output does not cover reordered input", i)
		}
	}
}

// TestRunPackedJobsMatchSetJobs: a job carrying only the packed
// snapshot answers exactly what the same job carrying the set does —
// permutation, planes, peak, total and profile — for every orderer
// (the package's and a test order.Func) times every filler, under
// Verify, and a job carrying both agrees too. Each matrix also equals
// its filler run on s.Reorder(perm) through the set edge (fill.Func's
// F for the baselines, core.FillWith for DP-fill), so the Unpack(perm)
// edge every baseline reaches the engine through is held to the cubes
// it stands for.
func TestRunPackedJobsMatchSetJobs(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	reverse := order.Func{OrderName: "reverse", F: func(p *cube.Packed) ([]int, error) {
		perm := order.Identity(p.Len())
		slices.Reverse(perm)
		return perm, nil
	}}
	orderers := []order.Orderer{nil, order.Tool(), order.XStat(), order.Interleaved(), order.ISA(3), reverse}
	fillers := append(fill.All(5, core.Options{}), fill.Adj(), fill.XStat())
	var setJobs, packedJobs, bothJobs []Job
	for _, ord := range orderers {
		for _, fl := range fillers {
			s := randomSet(r, 1+r.Intn(100), 1+r.Intn(40), 0.7)
			p := cube.Pack(s)
			setJobs = append(setJobs, Job{Set: s, Orderer: ord, Filler: fl})
			packedJobs = append(packedJobs, Job{Packed: p, Orderer: ord, Filler: fl})
			bothJobs = append(bothJobs, Job{Set: s, Packed: p, Orderer: ord, Filler: fl})
		}
	}
	e := &Engine{Workers: 2, Verify: true}
	want := e.Run(context.Background(), setJobs)
	for i, w := range want {
		if w.Err != nil {
			t.Fatalf("job %d: %v", i, w.Err)
		}
		s := setJobs[i].Set
		if w.Perm != nil {
			s = s.Reorder(w.Perm)
		}
		var edge *cube.Set
		var err error
		if f, ok := setJobs[i].Filler.(fill.Func); ok {
			edge, err = f.F(s.Clone())
		} else {
			edge, _, err = core.FillWith(s, core.Options{})
		}
		if err != nil || !w.Filled.Unpack().Equal(edge) {
			t.Fatalf("job %d (%s): matrix differs from the set edge's (%v)", i, setJobs[i].Filler.Name(), err)
		}
	}
	for _, jobs := range [][]Job{packedJobs, bothJobs} {
		for i, got := range e.Run(context.Background(), jobs) {
			w := want[i]
			if got.Err != nil {
				t.Fatalf("job %d: %v", i, got.Err)
			}
			if !slices.Equal(got.Perm, w.Perm) || !slices.Equal(got.Filled.Strings(), w.Filled.Strings()) ||
				got.Peak != w.Peak || got.Total != w.Total || !slices.Equal(got.Profile, w.Profile) {
				t.Fatalf("job %d (%v, %s): snapshot job answers differently from the set job", i, jobs[i].Orderer, jobs[i].Filler.Name())
			}
		}
	}
}

// TestRunCountOnly: a CountOnly DP job answers the perm and statistics
// of the full job with no matrix; a filler without a count entry
// point, and any job under Verify, still fills.
func TestRunCountOnly(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	var full, counted []Job
	for _, ord := range []order.Orderer{nil, order.Tool(), order.Interleaved()} {
		for _, fl := range []fill.Filler{fill.DP(), fill.Backward()} {
			s := randomSet(r, 1+r.Intn(100), 1+r.Intn(40), 0.7)
			full = append(full, Job{Set: s, Orderer: ord, Filler: fl})
			counted = append(counted, Job{Packed: cube.Pack(s), Orderer: ord, Filler: fl, CountOnly: true})
		}
	}
	for _, verify := range []bool{false, true} {
		e := &Engine{Workers: 2, Verify: verify}
		want := e.Run(context.Background(), full)
		for i, got := range e.Run(context.Background(), counted) {
			w := want[i]
			if got.Err != nil || w.Err != nil {
				t.Fatalf("job %d: %v / %v", i, got.Err, w.Err)
			}
			if !slices.Equal(got.Perm, w.Perm) || got.Peak != w.Peak || got.Total != w.Total ||
				!slices.Equal(got.Profile, w.Profile) {
				t.Fatalf("job %d (%s, verify %v): counted %d/%d/%v, filled %d/%d/%v", i, counted[i].Filler.Name(),
					verify, got.Peak, got.Total, got.Profile, w.Peak, w.Total, w.Profile)
			}
			wantMatrix := verify || !fill.IsDP(counted[i].Filler)
			if (got.Filled != nil) != wantMatrix {
				t.Fatalf("job %d (%s, verify %v): matrix %v, want one: %v", i, counted[i].Filler.Name(),
					verify, got.Filled != nil, wantMatrix)
			}
			if wantMatrix && !slices.Equal(got.Filled.Strings(), w.Filled.Strings()) {
				t.Fatalf("job %d (%s, verify %v): filled matrix differs", i, counted[i].Filler.Name(), verify)
			}
		}
	}
}

func TestRunVerifyCatchesBadFiller(t *testing.T) {
	s := cube.MustParseSet("0X", "X1")
	bad := fill.Func{FillName: "liar", F: func(in *cube.Set) (*cube.Set, error) {
		// Flips a care bit: not a completion.
		out := in.Clone()
		out.Cubes[0][0] = cube.One
		out.Cubes[0][1] = cube.Zero
		out.Cubes[1][0] = cube.Zero
		out.Cubes[1][1] = cube.Zero
		return out, nil
	}}
	e := &Engine{Workers: 1, Verify: true}
	res := e.Run(context.Background(), []Job{{Set: s, Filler: bad}})
	if res[0].Err == nil {
		t.Fatal("verify accepted a non-completion")
	}
	e.Verify = false
	res = e.Run(context.Background(), []Job{{Set: s, Filler: bad}})
	if res[0].Err != nil {
		t.Fatalf("unverified run rejected the job: %v", res[0].Err)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := dpJobs(t, 5)
	res := New(2).Run(ctx, jobs)
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestRunRecordsDurations(t *testing.T) {
	jobs := dpJobs(t, 3)
	res := New(3).Run(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Duration <= 0 {
			t.Fatalf("job %d: non-positive duration %v", i, r.Duration)
		}
	}
}

// TestRunTimingSplit pins the timing fields: Order and Fill come from
// one shared clock read, so they sum to Duration exactly, and a job
// that waited for the single worker reports that wait as QueueWait.
func TestRunTimingSplit(t *testing.T) {
	slowOrder := order.Func{OrderName: "slow", F: func(p *cube.Packed) ([]int, error) {
		time.Sleep(5 * time.Millisecond)
		return order.Tool().OrderPacked(p)
	}}
	slowFill := fill.Func{FillName: "slow", F: func(s *cube.Set) (*cube.Set, error) {
		time.Sleep(5 * time.Millisecond)
		return fillSet(fill.DP(), s)
	}}
	set := cube.MustParseSet("0XX1", "X1X0", "1X0X")
	jobs := []Job{
		{Name: "a", Set: set, Orderer: slowOrder, Filler: slowFill},
		{Name: "b", Set: set, Orderer: slowOrder, Filler: slowFill},
		{Name: "nil-set", Filler: fill.DP()},
	}
	res := New(1).Run(context.Background(), jobs)
	for i, r := range res {
		if r.Order+r.Fill != r.Duration {
			t.Fatalf("job %d: order %v + fill %v != duration %v", i, r.Order, r.Fill, r.Duration)
		}
		if r.QueueWait < 0 {
			t.Fatalf("job %d: negative queue wait %v", i, r.QueueWait)
		}
	}
	for i, r := range res[:2] {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Order < 5*time.Millisecond || r.Fill < 5*time.Millisecond {
			t.Fatalf("job %d: order %v / fill %v miss their 5ms stages", i, r.Order, r.Fill)
		}
	}
	if res[1].QueueWait < res[0].Duration {
		t.Fatalf("second job waited %v behind a first job that ran %v", res[1].QueueWait, res[0].Duration)
	}
	if r := res[2]; r.Err == nil || r.Fill != 0 || r.Order != r.Duration {
		t.Fatalf("job failing before the fill: err %v, order %v, fill %v, duration %v", r.Err, r.Order, r.Fill, r.Duration)
	}
}
