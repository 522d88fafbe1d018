package model

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Dataset directory layout (one file per entity kind plus one per change
// set), patterned after the CSV inputs of the TTC 2018 benchmark framework:
//
//	posts.csv      id,ts
//	comments.csv   id,ts,parent,post
//	users.csv      id
//	friends.csv    user1,user2
//	likes.csv      user,comment
//	change-NN.csv  kind-tagged rows (post|comment|user|friend|like,...)

// WriteDataset serializes d into directory dir, creating it if needed.
func WriteDataset(dir string, d *Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s := d.Snapshot
	if err := writeCSV(filepath.Join(dir, "posts.csv"), func(w *csv.Writer) error {
		for _, p := range s.Posts {
			if err := w.Write([]string{itoa(p.ID), itoa(p.Timestamp)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "comments.csv"), func(w *csv.Writer) error {
		for _, c := range s.Comments {
			if err := w.Write([]string{itoa(c.ID), itoa(c.Timestamp), itoa(c.ParentID), itoa(c.PostID)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "users.csv"), func(w *csv.Writer) error {
		for _, u := range s.Users {
			if err := w.Write([]string{itoa(u.ID)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "friends.csv"), func(w *csv.Writer) error {
		for _, f := range s.Friendships {
			if err := w.Write([]string{itoa(f.User1), itoa(f.User2)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "likes.csv"), func(w *csv.Writer) error {
		for _, l := range s.Likes {
			if err := w.Write([]string{itoa(l.UserID), itoa(l.CommentID)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for k := range d.ChangeSets {
		name := filepath.Join(dir, fmt.Sprintf("change-%02d.csv", k+1))
		cs := &d.ChangeSets[k]
		if err := writeCSV(name, func(w *csv.Writer) error {
			for _, ch := range cs.Changes {
				var rec []string
				switch ch.Kind {
				case KindAddPost:
					rec = []string{"post", itoa(ch.Post.ID), itoa(ch.Post.Timestamp)}
				case KindAddComment:
					c := ch.Comment
					rec = []string{"comment", itoa(c.ID), itoa(c.Timestamp), itoa(c.ParentID), itoa(c.PostID)}
				case KindAddUser:
					rec = []string{"user", itoa(ch.User.ID)}
				case KindAddFriendship:
					rec = []string{"friend", itoa(ch.Friendship.User1), itoa(ch.Friendship.User2)}
				case KindAddLike:
					rec = []string{"like", itoa(ch.Like.UserID), itoa(ch.Like.CommentID)}
				case KindRemoveFriendship:
					rec = []string{"unfriend", itoa(ch.Friendship.User1), itoa(ch.Friendship.User2)}
				case KindRemoveLike:
					rec = []string{"unlike", itoa(ch.Like.UserID), itoa(ch.Like.CommentID)}
				default:
					return fmt.Errorf("model: unknown change kind %d", ch.Kind)
				}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// ReadDataset deserializes a dataset directory written by WriteDataset. It
// parses the five snapshot files concurrently, each into its own slice;
// when several fail, the error of the first in the order posts, comments,
// users, friends, likes is returned. Change files are read after them, in
// name order.
func ReadDataset(dir string) (*Dataset, error) {
	d := &Dataset{Snapshot: &Snapshot{}}
	s := d.Snapshot
	files := []struct {
		name   string
		fields int
		row    func([]string) error
	}{
		{"posts.csv", 2, func(rec []string) error {
			id, ts, err := atoi2(rec[0], rec[1])
			if err != nil {
				return err
			}
			s.Posts = append(s.Posts, Post{ID: id, Timestamp: ts})
			return nil
		}},
		{"comments.csv", 4, func(rec []string) error {
			id, ts, err := atoi2(rec[0], rec[1])
			if err != nil {
				return err
			}
			parent, post, err := atoi2(rec[2], rec[3])
			if err != nil {
				return err
			}
			s.Comments = append(s.Comments, Comment{ID: id, Timestamp: ts, ParentID: parent, PostID: post})
			return nil
		}},
		{"users.csv", 1, func(rec []string) error {
			id, err := strconv.ParseInt(rec[0], 10, 64)
			if err != nil {
				return err
			}
			s.Users = append(s.Users, User{ID: id})
			return nil
		}},
		{"friends.csv", 2, func(rec []string) error {
			u1, u2, err := atoi2(rec[0], rec[1])
			if err != nil {
				return err
			}
			s.Friendships = append(s.Friendships, Friendship{User1: u1, User2: u2})
			return nil
		}},
		{"likes.csv", 2, func(rec []string) error {
			u, c, err := atoi2(rec[0], rec[1])
			if err != nil {
				return err
			}
			s.Likes = append(s.Likes, Like{UserID: u, CommentID: c})
			return nil
		}},
	}
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for k, f := range files {
		wg.Add(1)
		go func(k int, path string, fields int, row func([]string) error) {
			defer wg.Done()
			errs[k] = readCSV(path, fields, row)
		}(k, filepath.Join(dir, f.name), f.fields, f.row)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var changeFiles []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "change-") && strings.HasSuffix(e.Name(), ".csv") {
			changeFiles = append(changeFiles, e.Name())
		}
	}
	sort.Strings(changeFiles)
	for _, name := range changeFiles {
		var cs ChangeSet
		if err := readCSVVariadic(filepath.Join(dir, name), func(rec []string) error {
			ch, err := parseChange(rec)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			cs.Changes = append(cs.Changes, ch)
			return nil
		}); err != nil {
			return nil, err
		}
		d.ChangeSets = append(d.ChangeSets, cs)
	}
	return d, nil
}

func parseChange(rec []string) (Change, error) {
	fail := func(want int) (Change, error) {
		return Change{}, fmt.Errorf("model: change row %q needs %d fields", strings.Join(rec, ","), want)
	}
	// encoding/csv never yields a zero-field record, but parseChange must
	// stay total on any input (see FuzzParseChange).
	if len(rec) == 0 {
		return Change{}, fmt.Errorf("model: empty change row")
	}
	switch rec[0] {
	case "post":
		if len(rec) != 3 {
			return fail(3)
		}
		id, ts, err := atoi2(rec[1], rec[2])
		if err != nil {
			return Change{}, err
		}
		return Change{Kind: KindAddPost, Post: Post{ID: id, Timestamp: ts}}, nil
	case "comment":
		if len(rec) != 5 {
			return fail(5)
		}
		id, ts, err := atoi2(rec[1], rec[2])
		if err != nil {
			return Change{}, err
		}
		parent, post, err := atoi2(rec[3], rec[4])
		if err != nil {
			return Change{}, err
		}
		return Change{Kind: KindAddComment, Comment: Comment{ID: id, Timestamp: ts, ParentID: parent, PostID: post}}, nil
	case "user":
		if len(rec) != 2 {
			return fail(2)
		}
		id, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return Change{}, err
		}
		return Change{Kind: KindAddUser, User: User{ID: id}}, nil
	case "friend":
		if len(rec) != 3 {
			return fail(3)
		}
		u1, u2, err := atoi2(rec[1], rec[2])
		if err != nil {
			return Change{}, err
		}
		return Change{Kind: KindAddFriendship, Friendship: Friendship{User1: u1, User2: u2}}, nil
	case "like":
		if len(rec) != 3 {
			return fail(3)
		}
		u, c, err := atoi2(rec[1], rec[2])
		if err != nil {
			return Change{}, err
		}
		return Change{Kind: KindAddLike, Like: Like{UserID: u, CommentID: c}}, nil
	case "unfriend":
		if len(rec) != 3 {
			return fail(3)
		}
		u1, u2, err := atoi2(rec[1], rec[2])
		if err != nil {
			return Change{}, err
		}
		return Change{Kind: KindRemoveFriendship, Friendship: Friendship{User1: u1, User2: u2}}, nil
	case "unlike":
		if len(rec) != 3 {
			return fail(3)
		}
		u, c, err := atoi2(rec[1], rec[2])
		if err != nil {
			return Change{}, err
		}
		return Change{Kind: KindRemoveLike, Like: Like{UserID: u, CommentID: c}}, nil
	default:
		return Change{}, fmt.Errorf("model: unknown change tag %q", rec[0])
	}
}

func itoa(x int64) string { return strconv.FormatInt(x, 10) }

func atoi2(a, b string) (int64, int64, error) {
	x, err := strconv.ParseInt(a, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.ParseInt(b, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

func writeCSV(path string, body func(*csv.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := body(w); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readCSV(path string, fields int, row func([]string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = fields
	r.ReuseRecord = true // row parses the record before the next Read
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := row(rec); err != nil {
			return err
		}
	}
}

func readCSVVariadic(path string, row func([]string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := row(rec); err != nil {
			return err
		}
	}
}
