package model_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// heldView is a view with the fields of each family as they were when it
// was taken, and its Nodes prefix, with the id and timestamp of each post
// and comment as they were.
type heldView struct {
	view    *model.View
	want    [model.Families][]int64
	release func()

	nodes                   model.Nodes
	wantPosts, wantComments []int64
}

// hold takes a view of st and records what it and its Nodes read.
func hold(st *model.State) *heldView {
	h := &heldView{}
	h.view, h.release = st.View()
	h.nodes = *h.view.Nodes()
	for f := model.KeyKind(0); f < model.Families; f++ {
		h.want[f] = h.view.AppendFields(nil, f, 0, h.view.Len(f))
	}
	posts, comments, _ := st.Counts()
	h.wantPosts = idTimes(nil, posts, h.nodes.PostIDTime)
	h.wantComments = idTimes(nil, comments, h.nodes.CommentIDTime)
	return h
}

// idTimes appends the id and timestamp of nodes [0, n) to dst.
func idTimes(dst []int64, n int, idTime func(int) (model.ID, int64)) []int64 {
	for i := 0; i < n; i++ {
		id, ts := idTime(i)
		dst = append(dst, id, ts)
	}
	return dst
}

// walk reads every family of the view in batches, as the snapshot encoder
// does, and the id and timestamp of every node of the prefix, and compares
// them with what they read when they were taken.
func (h *heldView) walk() error {
	if got := idTimes(nil, len(h.wantPosts)/2, h.nodes.PostIDTime); !slices.Equal(got, h.wantPosts) {
		return errors.New("a post's id or timestamp changed under Nodes")
	}
	if got := idTimes(nil, len(h.wantComments)/2, h.nodes.CommentIDTime); !slices.Equal(got, h.wantComments) {
		return errors.New("a comment's id or timestamp changed under Nodes")
	}
	var vals []int64
	for f := model.KeyKind(0); f < model.Families; f++ {
		n, width := h.view.Len(f), len(f.Fields())
		if n*width != len(h.want[f]) {
			return fmt.Errorf("family %d: %d entities, want %d", f, n, len(h.want[f])/width)
		}
		for i := 0; i < n; i += 256 {
			j := min(i+256, n)
			vals = h.view.AppendFields(vals[:0], f, i, j)
			if !slices.Equal(vals, h.want[f][i*width:j*width]) {
				return fmt.Errorf("family %d: entities [%d, %d) changed", f, i, j)
			}
		}
	}
	return nil
}

// TestStateViewReadConcurrently reads views and Nodes prefixes on another
// goroutine while the owner applies a seeded, removal-heavy stream in
// which every other change set is first sent with an invalid change at
// its end, so its rollback pops the nodes it added and puts removed
// edges' keys back in place. Each view and prefix must read as it did
// when it was taken, both before and after the release of the view taken
// before it. Run it under the race detector: the reader shares the
// State's key arrays, which the owner appends to and detaches, and its
// node arrays, which the owner appends to and truncates.
func TestStateViewReadConcurrently(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 3, ChangeSets: 400, RemovalFraction: 0.5})
	st, err := model.NewState(d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	duplicate := model.Change{Kind: model.KindAddPost, Post: d.Snapshot.Posts[0]}

	// The owner may run a few views ahead of the reader, so that several
	// are held at once and the reader releases one while reading the next.
	views := make(chan *heldView, 4)
	done := make(chan error, 1)
	go func() {
		var prev *heldView
		var err error
		for h := range views {
			if err == nil {
				err = h.walk()
			}
			if prev != nil {
				prev.release()
			}
			if err == nil {
				err = h.walk()
			}
			prev = h
		}
		if prev != nil {
			prev.release()
		}
		done <- err
	}()

	func() {
		defer close(views)
		for i := range d.ChangeSets {
			cs := d.ChangeSets[i].Changes
			if i%2 == 0 {
				if _, err := st.Apply(append(slices.Clip(cs), duplicate)); err == nil {
					t.Fatalf("change set %d with a duplicate post was accepted", i)
				}
			}
			if _, err := st.Apply(cs); err != nil {
				t.Fatalf("change set %d: %v", i, err)
			}
			if i%5 == 0 {
				views <- hold(st)
			}
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
