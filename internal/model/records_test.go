package model_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestRebuiltRecordsEqualApply: the State keeps each post's timestamp and
// each comment's timestamp, parent index and root post index beside their
// ids, and rebuilds their records from those. On datagen sf 32, seed 1,
// 900 change sets at removal fraction 0.35, the rebuilt records must equal
// Snapshot.Apply's after every set: a Nodes prefix's, and a View's fields
// for posts and comments, at every index.
// Every other set is first sent with a duplicate post at its end, so
// Apply adds its nodes and pops them again; a Nodes prefix taken before
// that must still read its own ids and timestamps after the rollback and
// after the set applies. The initial comments span several of NewState's
// chunks, and the stream holds both direct replies and replies to
// comments, some of them to a parent in an earlier chunk.
func TestRebuiltRecordsEqualApply(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1, ChangeSets: 900, RemovalFraction: 0.35})
	ref := d.Snapshot.Clone()
	st, err := model.NewState(d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	var fields [2][]int64
	if err := sameRecords(st, ref, &fields); err != nil {
		t.Fatalf("initial state: %v", err)
	}
	duplicate := model.Change{Kind: model.KindAddPost, Post: d.Snapshot.Posts[0]}
	for i := range d.ChangeSets {
		cs := &d.ChangeSets[i]
		if i%2 == 0 {
			before := nodesOf(st)
			if _, err := st.Apply(append(slices.Clip(cs.Changes), duplicate)); err == nil {
				t.Fatalf("change set %d with a duplicate post was accepted", i)
			}
			if err := sameIDTimes(before, ref); err != nil {
				t.Fatalf("change set %d, after the rollback: Nodes prefix: %v", i, err)
			}
			if _, err := st.Apply(cs.Changes); err != nil {
				t.Fatalf("change set %d: %v", i, err)
			}
			if err := sameIDTimes(before, ref); err != nil {
				t.Fatalf("change set %d, after the apply: Nodes prefix taken before it: %v", i, err)
			}
		} else if _, err := st.Apply(cs.Changes); err != nil {
			t.Fatalf("change set %d: %v", i, err)
		}
		ref.Apply(cs)
		if err := sameRecords(st, ref, &fields); err != nil {
			t.Fatalf("after change set %d: %v", i, err)
		}
	}

	// What the stream covers.
	index := make(map[model.ID]int, len(ref.Comments))
	var direct, replies, earlierChunk int
	for i, c := range ref.Comments {
		index[c.ID] = i
		if c.ParentID == c.PostID {
			direct++
			continue
		}
		replies++
		if p := index[c.ParentID]; i < len(d.Snapshot.Comments) && p < i/model.CommentChunk*model.CommentChunk {
			earlierChunk++
		}
	}
	t.Logf("%d comments (%d initial): %d direct replies, %d replies to comments, %d of them to a parent in an earlier NewState chunk",
		len(ref.Comments), len(d.Snapshot.Comments), direct, replies, earlierChunk)
	if len(d.Snapshot.Comments) <= model.CommentChunk || direct == 0 || replies == 0 || earlierChunk == 0 {
		t.Fatal("the stream does not cover every case")
	}
}

// sameRecords checks that the State's posts and comments equal want's, at
// every index, as a Nodes prefix rebuilds them and as a View writes their
// fields. It reads the fields into the buffers in fields.
func sameRecords(st *model.State, want *model.Snapshot, fields *[2][]int64) error {
	view, release := st.View()
	defer release()
	posts, comments := view.Len(model.KeyPost), view.Len(model.KeyComment)
	if posts != len(want.Posts) || comments != len(want.Comments) {
		return fmt.Errorf("%d posts and %d comments, want %d and %d", posts, comments, len(want.Posts), len(want.Comments))
	}
	n := view.Nodes()
	for i, p := range want.Posts {
		if got := n.Post(i); got != p {
			return fmt.Errorf("Nodes.Post(%d) = %+v, want %+v", i, got, p)
		}
	}
	for i, c := range want.Comments {
		if got := n.Comment(i); got != c {
			return fmt.Errorf("Nodes.Comment(%d) = %+v, want %+v", i, got, c)
		}
	}
	if err := sameIDTimes(n, want); err != nil {
		return err
	}
	for f, count := range map[model.KeyKind]int{model.KeyPost: posts, model.KeyComment: comments} {
		if got := view.Len(f); got != count {
			return fmt.Errorf("family %d: the view holds %d entities, want %d", f, got, count)
		}
		fields[0] = view.AppendFields(fields[0][:0], f, 0, count)
		fields[1] = want.AppendFields(fields[1][:0], f, 0, count)
		if !slices.Equal(fields[0], fields[1]) {
			return fmt.Errorf("family %d: the view's fields differ from Snapshot.Apply's", f)
		}
	}
	return nil
}

// nodesOf returns the Nodes prefix of st's posts and comments now, through
// a view it releases at once: no node is written in place, so the prefix
// stays readable.
func nodesOf(st *model.State) *model.Nodes {
	view, release := st.View()
	release()
	return view.Nodes()
}

// sameIDTimes checks that the prefix n reads the id and timestamp of
// every post and comment of want, the nodes n held when it was taken.
func sameIDTimes(n *model.Nodes, want *model.Snapshot) error {
	for i, p := range want.Posts {
		if id, ts := n.PostIDTime(i); id != p.ID || ts != p.Timestamp {
			return fmt.Errorf("post %d reads id %d, timestamp %d; want %d, %d", i, id, ts, p.ID, p.Timestamp)
		}
	}
	for i, c := range want.Comments {
		if id, ts := n.CommentIDTime(i); id != c.ID || ts != c.Timestamp {
			return fmt.Errorf("comment %d reads id %d, timestamp %d; want %d, %d", i, id, ts, c.ID, c.Timestamp)
		}
	}
	return nil
}
