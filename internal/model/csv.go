package model

import (
	"bufio"
	"bytes"
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

// ReadDataset deserializes a dataset directory written by WriteDataset. It
// parses the five snapshot files concurrently, each into its own slice;
// when several fail, the error of the first in the order posts, comments,
// users, friends, likes is returned. Change files are read after them, in
// name order.
func ReadDataset(dir string) (*Dataset, error) {
	d := &Dataset{Snapshot: &Snapshot{}}
	s := d.Snapshot
	var errs [Families]error
	var wg sync.WaitGroup
	for f := KeyKind(0); f < Families; f++ {
		wg.Add(1)
		go func(f KeyKind) {
			defer wg.Done()
			errs[f] = readCSV(filepath.Join(dir, snapshotFiles[f]), int(f), func(_ ChangeKind, v []int64) {
				s.AppendEntities(f, v)
			})
		}(f)
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

// readCSV opens path and reads it with readRecords.
func readCSV(path string, family int, row func(ChangeKind, []int64)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return readRecords(path, f, family, row)
}

// readRecords reads a dataset file, named path in its errors, calling row
// with each record's change kind and integer fields, in a slice it reuses.
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
func readRecords(path string, r io.Reader, family int, row func(ChangeKind, []int64)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	vals := make([]int64, 0, MaxFields)
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
			return fmt.Errorf("%s: line %d: a double quote (fields are plain integers)", path, line)
		}
		b = bytes.TrimSuffix(b, []byte{'\n'})
		b = bytes.TrimSuffix(b, []byte{'\r'})
		if len(b) > 0 {
			n := bytes.Count(b, []byte{','}) + 1
			k, f := ChangeKind(0), KeyKind(family)
			if family < 0 {
				tag, rest, _ := bytes.Cut(b, []byte{','})
				var ok bool
				if k, ok = kindOfTag(tag); !ok {
					return fmt.Errorf("%s: line %d: unknown change tag %q", path, line, tag)
				}
				f, b, n = kinds[k].family, rest, n-1
			}
			if n != len(f.Fields()) {
				return fmt.Errorf("%s: %w", path, &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
			}
			vals = vals[:n]
			for i := range vals {
				field := b
				if c := bytes.IndexByte(b, ','); c >= 0 {
					field, b = b[:c], b[c+1:]
				}
				v, err := parseInt(field)
				if err != nil {
					return fmt.Errorf("%s: line %d: %w", path, line, err)
				}
				vals[i] = v
			}
			row(k, vals)
		}
		if err == io.EOF {
			return nil
		}
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
