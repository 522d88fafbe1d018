package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grb"
	"repro/internal/model"
)

// runAll drives a set of engines through a dataset in lockstep, asserting
// after the initial evaluation and after every change set that all engines
// agree with the brute-force oracle (and hence with each other), and that
// Q2IncrementalCC's maintained score of every comment is the oracle's.
func runAll(t *testing.T, d *model.Dataset, engines []Solution, q1 bool) {
	t.Helper()
	snapshot := d.Snapshot.Clone()
	for _, eng := range engines {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatalf("%s Load: %v", eng.Name(), err)
		}
	}
	check := func(step string) {
		postTS, commentTS := timestamps(snapshot)
		var want Result
		var q2Scores map[model.ID]int64
		if q1 {
			want = oracleTopK(oracleQ1(snapshot), postTS, TopK)
		} else {
			q2Scores = oracleQ2(snapshot)
			want = oracleTopK(q2Scores, commentTS, TopK)
		}
		for _, eng := range engines {
			var got Result
			var err error
			if step == "initial" {
				got, err = eng.Initial()
			} else {
				continue // update results are checked by the caller loop
			}
			if err != nil {
				t.Fatalf("%s %s: %v", eng.Name(), step, err)
			}
			assertResultsEqual(t, eng.Name(), step, want, got)
			if cc, ok := eng.(*Q2IncrementalCC); ok {
				assertCCScores(t, cc, step, q2Scores)
			}
		}
	}
	check("initial")
	for k := range d.ChangeSets {
		snapshot.Apply(&d.ChangeSets[k])
		postTS, commentTS := timestamps(snapshot)
		var want Result
		var q2Scores map[model.ID]int64
		if q1 {
			want = oracleTopK(oracleQ1(snapshot), postTS, TopK)
		} else {
			q2Scores = oracleQ2(snapshot)
			want = oracleTopK(q2Scores, commentTS, TopK)
		}
		for _, eng := range engines {
			got, err := eng.Update(&d.ChangeSets[k])
			if err != nil {
				t.Fatalf("%s update %d: %v", eng.Name(), k, err)
			}
			assertResultsEqual(t, eng.Name(), "update", want, got)
			if cc, ok := eng.(*Q2IncrementalCC); ok {
				assertCCScores(t, cc, fmt.Sprintf("update %d", k), q2Scores)
			}
		}
	}
}

// assertCCScores checks every comment's maintained Q2IncrementalCC score,
// read through its local index (a parked comment scores 0), against the
// oracle's.
func assertCCScores(t *testing.T, cc *Q2IncrementalCC, step string, want map[model.ID]int64) {
	t.Helper()
	index := commentIndex(cc.st)
	for id, score := range want {
		var got int64
		if l := cc.local[index[id]]; l >= 0 {
			got = cc.cc[l].score
		}
		if got != score {
			t.Fatalf("%s %s: comment %d scores %d, oracle %d", cc.Name(), step, id, got, score)
		}
	}
}

// commentIndex maps every comment id of st to its index.
func commentIndex(st *model.State) map[model.ID]int {
	view, release := st.View()
	nc := view.Len(model.KeyComment)
	release()
	index := make(map[model.ID]int, nc)
	for i := 0; i < nc; i++ {
		id, _ := st.CommentIDTime(i)
		index[id] = i
	}
	return index
}

func assertResultsEqual(t *testing.T, name, step string, want, got Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s %s: got %v, want %v", name, step, got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s %s: rank %d = %+v, want %+v\nfull: got %v want %v",
				name, step, i, got[i], want[i], got, want)
		}
	}
}

func TestQ1EnginesMatchOracleOnGeneratedData(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 2018} {
		d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: seed})
		runAll(t, d, q1Engines(), true)
	}
}

func TestQ2EnginesMatchOracleOnGeneratedData(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 2018} {
		d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: seed})
		runAll(t, d, q2Engines(), false)
	}
}

func TestEnginesMatchOracleOnLargerGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("larger graph equivalence skipped in -short mode")
	}
	d := datagen.Generate(datagen.Config{ScaleFactor: 4, Seed: 42})
	runAll(t, d, q1Engines(), true)
	runAll(t, q2Dataset(d), q2Engines(), false)
}

// q2Dataset clones a dataset so Q1 and Q2 runs cannot interfere through
// shared snapshot mutation.
func q2Dataset(d *model.Dataset) *model.Dataset {
	return &model.Dataset{Snapshot: d.Snapshot.Clone(), ChangeSets: d.ChangeSets}
}

func TestEnginesWithDenseChangeStream(t *testing.T) {
	// A stream with many, larger change sets stresses dimension growth and
	// pending-tuple handling.
	d := datagen.Generate(datagen.Config{
		ScaleFactor:      1,
		Seed:             77,
		ChangeSets:       40,
		MinChangesPerSet: 5,
		MaxChangesPerSet: 15,
	})
	runAll(t, d, q1Engines(), true)
	runAll(t, q2Dataset(d), q2Engines(), false)
}

func TestQ2AffectedDetectionVariantsAgree(t *testing.T) {
	// The row-merge and incidence-matrix affected-set detections must
	// produce identical results across a long stream (they already both
	// match the oracle above; this pins them to each other on a bigger
	// run for clearer failure attribution).
	d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 9, ChangeSets: 30})
	rowMerge := NewQ2Incremental()
	incidence := NewQ2IncrementalIncidence()
	for _, eng := range []Solution{rowMerge, incidence} {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
	}
	for k := range d.ChangeSets {
		a, err := rowMerge.Update(&d.ChangeSets[k])
		if err != nil {
			t.Fatal(err)
		}
		b, err := incidence.Update(&d.ChangeSets[k])
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, "incidence-vs-rowmerge", "update", a, b)
	}
}

// TestQ2ParallelInitialMatchesSerial: Initial scores comments on
// runtime.GOMAXPROCS(0) workers and Update on grb.Threads() workers, each
// with its own scratch. At four workers both must produce exactly the
// scores and Results of one worker, on a stream with removals and on the
// hub graph, where one friend row takes the probe path. Under -race it
// also checks that the workers share the matrices read-only.
func TestQ2ParallelInitialMatchesSerial(t *testing.T) {
	hubSnap, hubStream := hubSnapshot(rand.New(rand.NewSource(3)))
	hubSets := make([]model.ChangeSet, 40)
	for k := range hubSets {
		hubSets[k] = hubStream.next()
	}
	d := datagen.Generate(datagen.Config{ScaleFactor: 4, Seed: 7, ChangeSets: 40, RemovalFraction: 0.35})
	for _, tc := range []struct {
		name string
		snap *model.Snapshot
		sets []model.ChangeSet
	}{
		{"datagen-sf4-rf35", d.Snapshot, d.ChangeSets},
		{"hub", hubSnap, hubSets},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (initial []int64, eng *Q2Incremental, results []Result) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				defer grb.SetThreads(grb.SetThreads(workers))
				eng = NewQ2Incremental()
				if err := eng.Load(tc.snap); err != nil {
					t.Fatal(err)
				}
				res, err := eng.Initial()
				if err != nil {
					t.Fatal(err)
				}
				initial = append([]int64(nil), eng.scores...)
				results = []Result{res}
				for k := range tc.sets {
					res, err := eng.Update(&tc.sets[k])
					if err != nil {
						t.Fatalf("update %d: %v", k, err)
					}
					results = append(results, res)
				}
				return initial, eng, results
			}
			serialInit, serial, want := run(1)
			parallelInit, parallel, got := run(4)
			if !reflect.DeepEqual(parallelInit, serialInit) {
				t.Fatal("Initial's scores at four workers differ from one worker's")
			}
			if !reflect.DeepEqual(parallel.scores, serial.scores) {
				t.Fatal("scores after the stream at four workers differ from one worker's")
			}
			for k := range want {
				assertResultsEqual(t, "four workers", fmt.Sprintf("step %d", k), want[k], got[k])
			}
			if parallel.subgraphEntries != serial.subgraphEntries {
				t.Fatalf("subgraph entries: %d at four workers, %d at one", parallel.subgraphEntries, serial.subgraphEntries)
			}
		})
	}
}

// searchLabel is the oracle for Attach's union-find labelling: it
// relabels every comment of s by one search over friendships (collect)
// from each unlabelled liker, in slot order, numbering the components in
// the order of their first likers, as Attach did before.
func searchLabel(s *Q2IncrementalCC) {
	var q ccSearch
	for ci := range s.cc {
		c := &s.cc[ci]
		for k := range c.likes {
			c.likes[k].label = -1
		}
		c.sizes, c.free, c.score = nil, 0, 0
		for k := range c.likes {
			if c.likes[k].label >= 0 {
				continue
			}
			comp := s.collect(&q, c, k, len(c.likes))
			for _, y := range comp {
				c.likes[y].label = int32(len(c.sizes))
			}
			c.sizes = append(c.sizes, int32(len(comp)))
			c.score += int64(len(comp)) * int64(len(comp))
		}
		c.sizes = slices.Clip(c.sizes)
	}
}

// assertSameLabels fails unless every comment of got has want's likers,
// labels, sizes, free list and score.
func assertSameLabels(t *testing.T, step string, got, want *Q2IncrementalCC) {
	t.Helper()
	if len(got.cc) != len(want.cc) {
		t.Fatalf("%s: %d comments, oracle %d", step, len(got.cc), len(want.cc))
	}
	differ := 0
	for ci := range got.cc {
		g, w := &got.cc[ci], &want.cc[ci]
		if !slices.Equal(g.likes, w.likes) || !slices.Equal(g.sizes, w.sizes) || g.free != w.free || g.score != w.score {
			if differ == 0 {
				t.Errorf("%s: comment %d: likes %v sizes %v free %d score %d, oracle likes %v sizes %v free %d score %d",
					step, ci, g.likes, g.sizes, g.free, g.score, w.likes, w.sizes, w.free, w.score)
			}
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%s: %d of %d comments differ from the search labelling", step, differ, len(got.cc))
	}
}

// TestQ2CCAttachMatchesSearchLabelling: Attach labels every comment's
// components by one union-find pass over all likes. Its likers, labels,
// sizes, free lists and scores must equal the search labelling's
// (searchLabel) in every comment: on the hub graph, on datagen sf 4 with
// removals, after Attach and after a 40-set stream that both engines
// apply, and on the datagen sf-128 seed-1 graph, whose hubs (a user with
// over 12k friends, a comment with over 4k likers) stress the join.
func TestQ2CCAttachMatchesSearchLabelling(t *testing.T) {
	hubSnap, hubStream := hubSnapshot(rand.New(rand.NewSource(5)))
	hubSets := make([]model.ChangeSet, 40)
	for k := range hubSets {
		hubSets[k] = hubStream.next()
	}
	d := datagen.Generate(datagen.Config{ScaleFactor: 4, Seed: 11, ChangeSets: 40, RemovalFraction: 0.35})
	for _, tc := range []struct {
		name string
		sf   int // when not 0, the datagen seed-1 snapshot at this scale factor
		snap *model.Snapshot
		sets []model.ChangeSet
	}{
		{name: "hub", snap: hubSnap, sets: hubSets},
		{name: "datagen-sf4-rf35", snap: d.Snapshot, sets: d.ChangeSets},
		{name: "datagen-sf128-seed1", sf: 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.sf != 0 {
				tc.snap = datagen.Generate(datagen.Config{ScaleFactor: tc.sf, Seed: 1}).Snapshot
			}
			eng, oracle := NewQ2IncrementalCC(), NewQ2IncrementalCC()
			for _, s := range []*Q2IncrementalCC{eng, oracle} {
				if err := s.Load(tc.snap); err != nil {
					t.Fatal(err)
				}
			}
			searchLabel(oracle)
			assertSameLabels(t, "attach", eng, oracle)
			for k := range tc.sets {
				want, err := oracle.Update(&tc.sets[k])
				if err != nil {
					t.Fatalf("update %d: %v", k, err)
				}
				got, err := eng.Update(&tc.sets[k])
				if err != nil {
					t.Fatalf("update %d: %v", k, err)
				}
				assertResultsEqual(t, "union-find labels", fmt.Sprintf("update %d", k), want, got)
			}
			assertSameLabels(t, "after the stream", eng, oracle)
		})
	}
}
