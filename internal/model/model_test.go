package model

import (
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestExampleDatasetValidates(t *testing.T) {
	if err := Validate(ExampleDataset()); err != nil {
		t.Fatal(err)
	}
}

func TestExampleDatasetCounts(t *testing.T) {
	d := ExampleDataset()
	if got := d.Snapshot.NodeCount(); got != 9 {
		t.Fatalf("NodeCount = %d, want 9 (2 posts + 3 comments + 4 users)", got)
	}
	// 3 comments × 2 (commented + rootPost) + 2 friendships + 5 likes
	if got := d.Snapshot.EdgeCount(); got != 13 {
		t.Fatalf("EdgeCount = %d, want 13", got)
	}
	if got := d.TotalInserts(); got != 4 {
		t.Fatalf("TotalInserts = %d, want 4", got)
	}
}

func TestApplyGrowsSnapshot(t *testing.T) {
	d := ExampleDataset()
	s := d.Snapshot.Clone()
	s.Apply(&d.ChangeSets[0])
	if len(s.Comments) != 4 {
		t.Fatalf("comments = %d, want 4", len(s.Comments))
	}
	if len(s.Likes) != 7 {
		t.Fatalf("likes = %d, want 7", len(s.Likes))
	}
	if len(s.Friendships) != 3 {
		t.Fatalf("friendships = %d, want 3", len(s.Friendships))
	}
	// The original must be untouched.
	if len(d.Snapshot.Comments) != 3 {
		t.Fatal("Apply on a clone mutated the original snapshot")
	}
}

func TestIDMap(t *testing.T) {
	m := NewIDMap()
	a := m.Add(100)
	b := m.Add(200)
	if a != 0 || b != 1 {
		t.Fatalf("indices = %d,%d, want 0,1", a, b)
	}
	if m.Add(100) != 0 {
		t.Fatal("re-adding must be idempotent")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if idx, ok := m.Index(200); !ok || idx != 1 {
		t.Fatalf("Index(200) = %d,%v", idx, ok)
	}
	if _, ok := m.Index(999); ok {
		t.Fatal("unknown id reported present")
	}
	if m.IDOf(1) != 200 {
		t.Fatalf("IDOf(1) = %d, want 200", m.IDOf(1))
	}
}

func TestIDMapMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex on unknown id must panic")
		}
	}()
	NewIDMap().MustIndex(42)
}

func TestValidateCatchesViolations(t *testing.T) {
	base := func() *Dataset { return ExampleDataset() }

	cases := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"duplicate post", func(d *Dataset) {
			d.Snapshot.Posts = append(d.Snapshot.Posts, Post{ID: P1})
		}},
		{"duplicate user", func(d *Dataset) {
			d.Snapshot.Users = append(d.Snapshot.Users, User{ID: U1})
		}},
		{"duplicate comment", func(d *Dataset) {
			d.Snapshot.Comments = append(d.Snapshot.Comments, Comment{ID: C1, ParentID: P1, PostID: P1})
		}},
		{"comment missing root", func(d *Dataset) {
			d.Snapshot.Comments = append(d.Snapshot.Comments, Comment{ID: 999, ParentID: P1, PostID: 888})
		}},
		{"comment missing parent", func(d *Dataset) {
			d.Snapshot.Comments = append(d.Snapshot.Comments, Comment{ID: 999, ParentID: 888, PostID: P1})
		}},
		{"comment root inconsistent with parent", func(d *Dataset) {
			d.Snapshot.Comments = append(d.Snapshot.Comments, Comment{ID: 999, ParentID: C3, PostID: P1})
		}},
		{"comment replying to wrong post", func(d *Dataset) {
			d.Snapshot.Comments = append(d.Snapshot.Comments, Comment{ID: 999, ParentID: P2, PostID: P1})
		}},
		{"self friendship", func(d *Dataset) {
			d.Snapshot.Friendships = append(d.Snapshot.Friendships, Friendship{User1: U1, User2: U1})
		}},
		{"friendship missing user", func(d *Dataset) {
			d.Snapshot.Friendships = append(d.Snapshot.Friendships, Friendship{User1: U1, User2: 999})
		}},
		{"like missing comment", func(d *Dataset) {
			d.Snapshot.Likes = append(d.Snapshot.Likes, Like{UserID: U1, CommentID: 999})
		}},
		{"like missing user", func(d *Dataset) {
			d.Snapshot.Likes = append(d.Snapshot.Likes, Like{UserID: 999, CommentID: C1})
		}},
		{"bad change set", func(d *Dataset) {
			d.ChangeSets = append(d.ChangeSets, ChangeSet{Changes: []Change{
				{Kind: KindAddLike, Like: Like{UserID: U1, CommentID: 12345}},
			}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.mutate(d)
			if err := Validate(d); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("Validate = %v, want integrity violation", err)
			}
		})
	}
}

func TestValidateChangeReferencingEarlierChange(t *testing.T) {
	// A like in change set 2 may reference a comment added in change set 1.
	d := ExampleDataset()
	d.ChangeSets = append(d.ChangeSets, ChangeSet{Changes: []Change{
		{Kind: KindAddLike, Like: Like{UserID: U1, CommentID: C4}},
	}})
	if err := Validate(d); err != nil {
		t.Fatalf("cross-change-set reference rejected: %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := ExampleDataset()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Snapshot, got.Snapshot) {
		t.Fatalf("snapshot round-trip mismatch:\nwant %+v\ngot  %+v", d.Snapshot, got.Snapshot)
	}
	if !reflect.DeepEqual(d.ChangeSets, got.ChangeSets) {
		t.Fatalf("change sets round-trip mismatch:\nwant %+v\ngot  %+v", d.ChangeSets, got.ChangeSets)
	}
}

func TestReadDatasetMissingDir(t *testing.T) {
	if _, err := ReadDataset(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

// TestReadDatasetFirstErrorInFileOrder: the snapshot files are parsed
// concurrently, yet with several broken files the error is always the one
// of the first broken file in the order posts, comments, users, friends,
// likes. Comments get a short row (a csv.ParseError), users and likes a
// non-numeric id (a strconv.NumError).
func TestReadDatasetFirstErrorInFileOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := WriteDataset(dir, ExampleDataset()); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"comments.csv": "1,2,3\n",
		"users.csv":    "x\n",
		"likes.csv":    "1,y\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 20; run++ {
		_, err := ReadDataset(dir)
		var pe *csv.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: ReadDataset = %v, want comments.csv's short-row error", run, err)
		}
	}
}

// TestReadDatasetRejectsQuotes: dataset fields are plain integers, so a
// double quote in a snapshot or a change file, even around a field
// encoding/csv would read, is an error naming the file and the line.
func TestReadDatasetRejectsQuotes(t *testing.T) {
	for name, body := range map[string]string{
		"likes.csv":     "2,201\n\"3\",201\n",
		"change-01.csv": "friend,1,4\n\"like\",2,202\n",
	} {
		dir := filepath.Join(t.TempDir(), "ds")
		if err := WriteDataset(dir, ExampleDataset()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadDataset(dir)
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s with a quoted field: ReadDataset = %v, want an error naming the file and line 2", name, err)
		}
	}
}

// TestChangeKindString pins every kind's three names in the kind table:
// the names are distinct across kinds in each column, and the dataset tag
// and the /update name each map back to their kind.
func TestChangeKindString(t *testing.T) {
	want := [Kinds][3]string{
		KindAddPost:          {"AddPost", "post", "add-post"},
		KindAddComment:       {"AddComment", "comment", "add-comment"},
		KindAddUser:          {"AddUser", "user", "add-user"},
		KindAddFriendship:    {"AddFriendship", "friend", "add-friendship"},
		KindAddLike:          {"AddLike", "like", "add-like"},
		KindRemoveFriendship: {"RemoveFriendship", "unfriend", "remove-friendship"},
		KindRemoveLike:       {"RemoveLike", "unlike", "remove-like"},
	}
	seen := [3]map[string]ChangeKind{{}, {}, {}}
	for k := ChangeKind(0); k < Kinds; k++ {
		got := [3]string{k.String(), kinds[k].tag, k.WireName()}
		if got != want[k] {
			t.Errorf("kind %d: names %q, want %q", k, got, want[k])
		}
		for col, name := range got {
			if other, dup := seen[col][name]; dup {
				t.Errorf("kinds %d and %d share the name %q", other, k, name)
			}
			seen[col][name] = k
		}
		if back, ok := kindOfTag([]byte(got[1])); !ok || back != k {
			t.Errorf("tag %q maps to %v, %v; want %v", got[1], back, ok, k)
		}
		if back, ok := WireKind([]byte(got[2])); !ok || back != k {
			t.Errorf("/update name %q maps to %v, %v; want %v", got[2], back, ok, k)
		}
	}
	if ChangeKind(99).String() != "ChangeKind(99)" || ChangeKind(99).WireName() != "" {
		t.Errorf("unknown kind renders as %q, /update name %q", ChangeKind(99), ChangeKind(99).WireName())
	}
	for _, name := range []string{"", "Post", "add-Post", "AddPost", "unlike "} {
		if _, ok := kindOfTag([]byte(name)); ok {
			t.Errorf("tag %q maps to a kind", name)
		}
		if _, ok := WireKind([]byte(name)); ok {
			t.Errorf("/update name %q maps to a kind", name)
		}
	}
}
