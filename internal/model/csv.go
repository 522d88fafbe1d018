package model

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
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
		row    func([]int64)
	}{
		{"posts.csv", 2, func(v []int64) {
			s.Posts = append(s.Posts, Post{ID: v[0], Timestamp: v[1]})
		}},
		{"comments.csv", 4, func(v []int64) {
			s.Comments = append(s.Comments, Comment{ID: v[0], Timestamp: v[1], ParentID: v[2], PostID: v[3]})
		}},
		{"users.csv", 1, func(v []int64) {
			s.Users = append(s.Users, User{ID: v[0]})
		}},
		{"friends.csv", 2, func(v []int64) {
			s.Friendships = append(s.Friendships, Friendship{User1: v[0], User2: v[1]})
		}},
		{"likes.csv", 2, func(v []int64) {
			s.Likes = append(s.Likes, Like{UserID: v[0], CommentID: v[1]})
		}},
	}
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for k, f := range files {
		wg.Add(1)
		go func(k int, path string, fields int, row func([]int64)) {
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

// readCSV opens path and reads it with readRecords.
func readCSV(path string, fields int, row func([]int64)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return readRecords(path, f, fields, row)
}

// readRecords reads a snapshot file, named path in its errors, of records
// of exactly fields integer fields, calling row with each record's values
// in a slice it reuses. It accepts what encoding/csv (default settings,
// FieldsPerRecord = fields) followed by strconv.ParseInt accepts and
// yields the same rows (FuzzReadRecords), but parses the bytes in place
// instead of allocating a string per field: lines end in \n or \r\n, empty
// lines are skipped, and a record's field count is checked before its
// fields are parsed. From the first line holding a double quote on,
// encoding/csv reads the rest of the file, which is exact because every
// record before that line was plain. Errors name the file and the line: a
// *csv.ParseError with csv.ErrFieldCount for a wrong field count, a
// *strconv.NumError for a field that is not an int64.
func readRecords(path string, r io.Reader, fields int, row func([]int64)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	vals := make([]int64, fields)
	var long []byte // a line longer than br's buffer
	for line := 1; ; line++ {
		b, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], b...)
			for err == bufio.ErrBufferFull {
				b, err = br.ReadSlice('\n')
				long = append(long, b...)
			}
			b = long
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(b) == 0 { // err is io.EOF
			return nil
		}
		if bytes.IndexByte(b, '"') >= 0 {
			rest := io.MultiReader(bytes.NewReader(bytes.Clone(b)), br)
			return readQuotedCSV(path, rest, line-1, fields, row)
		}
		b = bytes.TrimSuffix(b, []byte{'\n'})
		b = bytes.TrimSuffix(b, []byte{'\r'})
		if len(b) > 0 {
			if n := bytes.Count(b, []byte{','}) + 1; n != fields {
				return fmt.Errorf("%s: %w", path, &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
			}
			for k := range vals {
				field := b
				if c := bytes.IndexByte(b, ','); c >= 0 {
					field, b = b[:c], b[c+1:]
				}
				v, err := parseInt(field)
				if err != nil {
					return fmt.Errorf("%s: line %d: %w", path, line, err)
				}
				vals[k] = v
			}
			row(vals)
		}
		if err == io.EOF {
			return nil
		}
	}
}

// readQuotedCSV is readRecords' encoding/csv path for the rest of a file from
// a line holding a double quote; skipped is the number of lines before it.
func readQuotedCSV(path string, r io.Reader, skipped, fields int, row func([]int64)) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = fields
	cr.ReuseRecord = true // row copies the values before the next Read
	vals := make([]int64, fields)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += skipped
			pe.Line += skipped
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for k, field := range rec {
			v, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				line, _ := cr.FieldPos(k)
				return fmt.Errorf("%s: line %d: %w", path, skipped+line, err)
			}
			vals[k] = v
		}
		row(vals)
	}
}

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string: an
// optional sign and up to 18 digits, which cannot overflow, are summed in
// place; anything else goes to strconv for its value or its error.
func parseInt(b []byte) (int64, error) {
	digits := b
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if b[0] == '-' {
		v = -v
	}
	return v, nil
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
