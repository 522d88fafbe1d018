package model

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Dataset directory layout, patterned after the CSV inputs of the TTC 2018
// benchmark framework: one file per entity family, each row the entity's
// fields in the codec order of the family table (layout.go), and one file
// per change set, each row a change's tag (the kind table, layout.go)
// followed by its family's fields:
//
//	posts.csv      id,ts
//	comments.csv   id,ts,parent,post
//	users.csv      id
//	friends.csv    user1,user2
//	likes.csv      user,comment
//	change-NN.csv  post|comment|user|friend|like|unfriend|unlike,fields...
//
// Fields are plain integers; a double quote anywhere in a file is an error.

// snapshotFiles are the snapshot's files by family.
var snapshotFiles = [Families]string{"posts.csv", "comments.csv", "users.csv", "friends.csv", "likes.csv"}

// WriteDataset serializes d into directory dir, creating it if needed.
func WriteDataset(dir string, d *Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s := d.Snapshot
	var vals []int64
	for f := KeyKind(0); f < Families; f++ {
		if err := writeCSV(filepath.Join(dir, snapshotFiles[f]), func(w *rowWriter) error {
			for i := 0; i < s.Len(f); i++ {
				vals = s.AppendFields(vals[:0], f, i, i+1)
				w.row("", vals)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for k := range d.ChangeSets {
		name := filepath.Join(dir, fmt.Sprintf("change-%02d.csv", k+1))
		cs := &d.ChangeSets[k]
		if err := writeCSV(name, func(w *rowWriter) error {
			for i := range cs.Changes {
				ch := &cs.Changes[i]
				f, ok := ch.Kind.Family()
				if !ok {
					return fmt.Errorf("model: unknown change kind %d", ch.Kind)
				}
				vals = ch.AppendFields(vals[:0], f)
				w.row(kinds[ch.Kind].tag, vals)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// rowWriter writes CSV rows of integers, each optionally led by a tag.
type rowWriter struct {
	w    *bufio.Writer
	line []byte
}

func (w *rowWriter) row(tag string, vals []int64) {
	b := append(w.line[:0], tag...)
	for k, v := range vals {
		if k > 0 || tag != "" {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	w.line = append(b, '\n')
	w.w.Write(w.line) // a write error sticks in w.w and is returned by Flush
}

func writeCSV(path string, body func(*rowWriter) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := &rowWriter{w: bufio.NewWriter(f)}
	if err := body(w); err != nil {
		f.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chunkBytes is about how much of a snapshot file one chunk holds:
// ReadDataset cuts each file at the first line end at or past every
// chunkBytes.
const chunkBytes = 256 << 10

// ReadDataset deserializes a dataset directory written by WriteDataset. It
// reads each snapshot file whole, cuts it into chunks at line ends (see
// chunkBytes) and parses the chunks of every file on runtime.GOMAXPROCS(0)
// goroutines through readRecords, each chunk into a slice of its own;
// then it appends each family's chunks in file order, into one array
// grown once. When several files fail, the error of the first in the
// order posts, comments, users, friends, likes is returned, and within a
// file the first line's. Change files are read after them, in name order.
func ReadDataset(dir string) (*Dataset, error) {
	// A chunk is a line-aligned stretch of the file of family f: its bytes
	// and the number of its first line, or the error of reading the file;
	// then what parsing it gave: its rows' fields in codec order, or the
	// error.
	type chunk struct {
		path string
		f    KeyKind
		b    []byte
		line int
		vals []int64
		err  error
	}
	var chunks []chunk
	for f := KeyKind(0); f < Families; f++ {
		path := filepath.Join(dir, snapshotFiles[f])
		b, err := os.ReadFile(path)
		if err != nil {
			chunks = append(chunks, chunk{path: path, f: f, err: err})
			continue
		}
		for line := 1; len(b) > 0; {
			n := len(b)
			if n > chunkBytes {
				if i := bytes.IndexByte(b[chunkBytes-1:], '\n'); i >= 0 {
					n = chunkBytes + i
				}
			}
			lines := bytes.Count(b[:n], []byte{'\n'})
			// A row per line, the last one perhaps without its '\n'.
			vals := make([]int64, 0, (lines+1)*len(f.Fields()))
			chunks = append(chunks, chunk{path: path, f: f, b: b[:n], line: line, vals: vals})
			line += lines
			b = b[n:]
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(chunks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(chunks); i = int(next.Add(1)) - 1 {
				c := &chunks[i]
				if c.err == nil {
					c.err = readRecords(c.path, c.b, c.line, int(c.f), func(_ ChangeKind, v []int64) {
						c.vals = append(c.vals, v...)
					})
				}
			}
		}()
	}
	wg.Wait()

	d := &Dataset{Snapshot: &Snapshot{}}
	s := d.Snapshot
	var n [Families]int
	for i := range chunks {
		c := &chunks[i]
		if c.err != nil {
			return nil, c.err
		}
		n[c.f] += len(c.vals) / len(c.f.Fields())
	}
	for f := KeyKind(0); f < Families; f++ {
		s.Grow(f, n[f])
	}
	for i := range chunks {
		s.AppendEntities(chunks[i].f, chunks[i].vals)
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
		if err := readCSV(filepath.Join(dir, name), -1, func(k ChangeKind, v []int64) {
			ch := Change{Kind: k}
			ch.SetFields(kinds[k].family, v)
			cs.Changes = append(cs.Changes, ch)
		}); err != nil {
			return nil, err
		}
		d.ChangeSets = append(d.ChangeSets, cs)
	}
	return d, nil
}

// readCSV reads the file at path whole and parses it with readRecords.
func readCSV(path string, family int, row func(ChangeKind, []int64)) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return readRecords(path, b, 1, family, row)
}

// readRecords parses b, a dataset file or a line-aligned stretch of one
// whose first line is line, named path in its errors, calling row with
// each record's change kind and integer fields, in a slice it reuses.
// In a snapshot file (family ≥ 0) every record is the fields of that
// family and its kind is 0; in a change file (family -1) a record's first
// field is a change kind's tag, and the fields of the kind's family
// follow.
//
// It parses the bytes in place: lines end in \n or \r\n, empty lines are
// skipped, fields are split at every comma, and a record's tag and field
// count are checked before its fields are parsed. What it accepts,
// encoding/csv (default settings) followed by the same tag and count
// checks and strconv.ParseInt accepts too, with the same rows; on input
// without a double quote the converse holds (FuzzReadRecords,
// FuzzParseChange). A double quote anywhere is an error: no writer of
// dataset files quotes a field. Errors name the file and the line: a
// *csv.ParseError with csv.ErrFieldCount for a wrong field count, a
// *strconv.NumError for a field that is not an int64.
func readRecords(path string, b []byte, line, family int, row func(ChangeKind, []int64)) error {
	vals := make([]int64, 0, MaxFields)
	for ; len(b) > 0; line++ {
		l := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			l, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if bytes.IndexByte(l, '"') >= 0 {
			return fmt.Errorf("%s: line %d: a double quote (fields are plain integers)", path, line)
		}
		if n := len(l); n > 0 && l[n-1] == '\r' {
			l = l[:n-1]
		}
		if len(l) == 0 {
			continue
		}
		n := bytes.Count(l, []byte{','}) + 1
		k, f := ChangeKind(0), KeyKind(family)
		if family < 0 {
			tag, rest, _ := bytes.Cut(l, []byte{','})
			var ok bool
			if k, ok = kindOfTag(tag); !ok {
				return fmt.Errorf("%s: line %d: unknown change tag %q", path, line, tag)
			}
			f, l, n = kinds[k].family, rest, n-1
		}
		if n != len(f.Fields()) {
			return fmt.Errorf("%s: %w", path, &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
		}
		vals = vals[:n]
		for i := range vals {
			field := l
			if c := bytes.IndexByte(l, ','); c >= 0 {
				field, l = l[:c], l[c+1:]
			}
			v, err := parseInt(field)
			if err != nil {
				return fmt.Errorf("%s: line %d: %w", path, line, err)
			}
			vals[i] = v
		}
		row(k, vals)
	}
	return nil
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
