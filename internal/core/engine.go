package core

import "repro/internal/model"

// Engines index nodes the way model.State does, and resolve nothing
// themselves: the State validates every change and resolves it to node
// indices (model.Ref) once, and an engine consumes those. An engine
// attaches from a View of the State, reading its node counts and edge
// keys in place. Ids and timestamps are read back through the State.

// Nodes reads the id and timestamp of a State's posts and comments by
// State index, the only fields an engine ranks by: the *model.State
// itself, or the *model.Nodes of a View of it, which an engine running on
// another goroutine than the State's owner (the shard runtime's audit)
// reads instead.
type Nodes interface {
	PostIDTime(i int) (model.ID, int64)
	CommentIDTime(i int) (model.ID, int64)
}

// postEntry and commentEntry are the ranking entries of post or comment
// i of nodes at score.
func postEntry(nodes Nodes, i int, score int64) Entry {
	id, ts := nodes.PostIDTime(i)
	return Entry{ID: id, Score: score, Timestamp: ts}
}

func commentEntry(nodes Nodes, i int, score int64) Entry {
	id, ts := nodes.CommentIDTime(i)
	return Entry{ID: id, Score: score, Timestamp: ts}
}

// Engine is a GraphBLAS engine: a Solution that also runs on resolved
// changes, in State indices, as the sharded runtime drives it. Attach
// loads the engine from v, a View of the State nodes reads: it takes the
// node counts from v and reads every friendship and like key in place.
// The engine reads nodes, when it is the *model.State itself, only while
// the State's owner is not applying changes: between commits, or inside
// one. UpdateRefs applies one change set's refs and reevaluates; it
// checks nothing, because refs come only from a State that accepted the
// set. Load and Update are adapters that check and resolve through a
// State of the engine's own. Stats sizes the state the engine keeps.
type Engine interface {
	Solution
	Attach(nodes Nodes, v *model.View) error
	UpdateRefs(refs []model.Ref) (Result, error)
	Stats() EngineStats
}

// standalone implements Solution's Load and Update for an engine that runs
// on its own, as in the paper's harness: it resolves through a State of
// its own and feeds the engine the resolved changes.
//
// The State checks every rule as the served State does: a change set with
// a duplicate add, or any other violation, fails with model.ErrIntegrity
// and the engine sees nothing of it. One rule differs, about data no
// engine reads: an engine reads a comment's root post, never its parent,
// and the Q2 engines may be fed a view without the comments nobody likes,
// which other comments may reply to, so the engine's State files each
// comment directly under its root post.
type standalone struct {
	self    Engine
	st      *model.State
	changes []model.Change
}

// Load implements Solution.
func (a *standalone) Load(snap *model.Snapshot) error {
	s := *snap
	s.Comments = make([]model.Comment, len(snap.Comments))
	for i, c := range snap.Comments {
		c.ParentID = c.PostID
		s.Comments[i] = c
	}
	st, err := model.NewState(&s)
	if err != nil {
		return err
	}
	a.st = st
	view, release := st.View()
	defer release()
	return a.self.Attach(st, view)
}

// Update implements Solution.
func (a *standalone) Update(cs *model.ChangeSet) (Result, error) {
	a.changes = append(a.changes[:0], cs.Changes...)
	for i := range a.changes {
		if ch := &a.changes[i]; ch.Kind == model.KindAddComment {
			ch.Comment.ParentID = ch.Comment.PostID
		}
	}
	refs, err := a.st.Apply(a.changes)
	if err != nil {
		return nil, err
	}
	return a.self.UpdateRefs(refs)
}
