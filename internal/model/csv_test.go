package model_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestReadDatasetChunks: ReadDataset parses each snapshot file in
// line-aligned chunks of about model.ChunkBytes. At sf 32, comments.csv spans
// several, and what ReadDataset reads equals what WriteDataset wrote.
func TestReadDatasetChunks(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1, ChangeSets: 3})
	dir := filepath.Join(t.TempDir(), "ds")
	if err := model.WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "comments.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 3*model.ChunkBytes {
		t.Fatalf("comments.csv holds %d bytes, fewer than three chunks of %d", fi.Size(), model.ChunkBytes)
	}
	got, err := model.ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Snapshot, got.Snapshot) {
		t.Fatal("snapshot read back differs from the one written")
	}
	if !reflect.DeepEqual(d.ChangeSets, got.ChangeSets) {
		t.Fatal("change sets read back differ from the ones written")
	}
}

// TestReadDatasetLineInLaterChunk: a bad row past the first chunk of a
// snapshot file is reported with its exact line. With bad rows in the
// second and third chunks of comments.csv and in likes.csv, the error is
// the second chunk's; with the third chunk's alone, it is that one.
func TestReadDatasetLineInLaterChunk(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1})
	dir := filepath.Join(t.TempDir(), "ds")
	if err := model.WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	// lineAt returns the number of the line that holds byte off of b, and
	// the lines of b.
	lineAt := func(b []byte, off int) (int, [][]byte) {
		return bytes.Count(b[:off], []byte{'\n'}) + 1, bytes.SplitAfter(b, []byte{'\n'})
	}
	comments, err := os.ReadFile(filepath.Join(dir, "comments.csv"))
	if err != nil {
		t.Fatal(err)
	}
	likes, err := os.ReadFile(filepath.Join(dir, "likes.csv"))
	if err != nil {
		t.Fatal(err)
	}
	second, lines := lineAt(comments, model.ChunkBytes+model.ChunkBytes/2)
	third, _ := lineAt(comments, 2*model.ChunkBytes+model.ChunkBytes/2)
	likeLine, likeLines := lineAt(likes, len(likes)/2)
	write := func(name string, lines [][]byte, bad map[int]string) {
		t.Helper()
		var b []byte
		for i, l := range lines {
			if row, ok := bad[i+1]; ok {
				l = []byte(row + "\n")
			}
			b = append(b, l...)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write("comments.csv", lines, map[int]string{second: "1,2,x,4", third: "1,2,3"})
	write("likes.csv", likeLines, map[int]string{likeLine: "1"})
	_, err = model.ReadDataset(dir)
	var ne *strconv.NumError
	if want := fmt.Sprintf("comments.csv: line %d: ", second); !errors.As(err, &ne) || !strings.Contains(err.Error(), want) {
		t.Fatalf("bad rows at comments.csv lines %d and %d: ReadDataset = %v, want %q", second, third, err, want)
	}

	write("comments.csv", lines, map[int]string{third: "1,2,3"})
	_, err = model.ReadDataset(dir)
	var pe *csv.ParseError
	if !errors.As(err, &pe) || pe.Line != third || !strings.Contains(err.Error(), "comments.csv: ") {
		t.Fatalf("a short row at comments.csv line %d: ReadDataset = %v", third, err)
	}
}

// TestReadDatasetBlankLines: blank lines ("\n" or "\r\n") anywhere in a
// snapshot file, before the first row and after the last included, are
// skipped, so the rows after them move up in their family's array; a
// file of blank lines only reads as a nil array.
func TestReadDatasetBlankLines(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1})
	dir := filepath.Join(t.TempDir(), "ds")
	if err := model.WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	// blanks rewrites the file name with the blank line blank inserted
	// before each line whose index is in at (len(lines) is past the last).
	blanks := func(name, blank string, at ...int) {
		t.Helper()
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(b, []byte{'\n'})
		lines = lines[:len(lines)-1] // the empty rest after the last '\n'
		var out []byte
		for i := 0; i <= len(lines); i++ {
			for _, k := range at {
				if k == i {
					out = append(out, blank...)
				}
			}
			if i < len(lines) {
				out = append(out, lines[i]...)
			}
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n := len(d.Snapshot.Comments)
	blanks("comments.csv", "\n", 0, 0, n/3, n/2, n/2+1, n)
	blanks("comments.csv", "\r\n", 1, 2*n/3, n)
	blanks("likes.csv", "\n", len(d.Snapshot.Likes)/2)
	if err := os.WriteFile(filepath.Join(dir, "users.csv"), []byte("\n\r\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := model.ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Snapshot.Clone()
	want.Users = nil
	if !reflect.DeepEqual(got.Snapshot, want) {
		t.Fatal("snapshot with blank lines reads back differently from the one written")
	}
}
