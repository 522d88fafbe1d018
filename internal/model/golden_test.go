package model

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriteDatasetBytesAreGolden pins every file WriteDataset writes, byte
// for byte, for the paper's running example plus a change set holding
// every change kind: datasets written by any earlier build must still
// load, and ReadDataset must read them back to the values written.
func TestWriteDatasetBytesAreGolden(t *testing.T) {
	d := ExampleDataset()
	d.ChangeSets = append(d.ChangeSets, ChangeSet{Changes: []Change{
		{Kind: KindAddPost, Post: Post{ID: 103, Timestamp: -70}},
		{Kind: KindAddComment, Comment: Comment{ID: 205, Timestamp: math.MaxInt64, ParentID: 103, PostID: 103}},
		{Kind: KindAddUser, User: User{ID: math.MinInt64}},
		{Kind: KindAddFriendship, Friendship: Friendship{User1: U4, User2: U2}},
		{Kind: KindAddLike, Like: Like{UserID: U1, CommentID: 205}},
		{Kind: KindRemoveFriendship, Friendship: Friendship{User1: U2, User2: U3}},
		{Kind: KindRemoveLike, Like: Like{UserID: U3, CommentID: C1}},
	}})
	want := map[string]string{
		"posts.csv":     "101,10\n102,20\n",
		"comments.csv":  "201,30,101,101\n202,40,201,101\n203,50,102,102\n",
		"users.csv":     "1\n2\n3\n4\n",
		"friends.csv":   "2,3\n3,4\n",
		"likes.csv":     "2,201\n3,201\n1,202\n3,202\n4,202\n",
		"change-01.csv": "friend,1,4\nlike,2,202\ncomment,204,60,201,101\nlike,4,204\n",
		"change-02.csv": "post,103,-70\ncomment,205,9223372036854775807,103,103\nuser,-9223372036854775808\n" +
			"friend,4,2\nlike,1,205\nunfriend,2,3\nunlike,3,201\n",
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("WriteDataset wrote %d files, want %d", len(entries), len(want))
	}
	for name, body := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Errorf("%s changed:\n got %q\nwant %q", name, got, body)
		}
	}
	back, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("golden dataset reads back as %+v", back)
	}
}
