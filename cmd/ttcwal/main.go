// Command ttcwal inspects and maintains a ttcserve durability directory
// (-data-dir) offline: it lists snapshot and write-ahead-log segment files,
// verifies every record's checksum and framing, can dump the committed
// batches, and can compact sealed segments by change key (superseded
// add+remove pairs drop out of the replay history; sequence numbers and the
// newest — active — segment are preserved). Inspection never modifies the
// directory; -compact rewrites sealed segments atomically and must only run
// while no server is using the directory.
//
// Usage:
//
//	ttcwal -dir /var/lib/ttc                  # summary + per-file health
//	ttcwal -dir /var/lib/ttc -dump            # print every committed batch
//	ttcwal -dir /var/lib/ttc -q               # exit status only (for scripts)
//	ttcwal -dir /var/lib/ttc -compact-dry-run # measure what compaction would save
//	ttcwal -dir /var/lib/ttc -compact         # compact sealed segments
//
// Exit status: 0 when the directory is clean (or compaction succeeded),
// 1 when any file is damaged or the replay tail has a gap — judged by the
// rule ttcserve starts from, so exactly when it would refuse to — 2 on bad
// flags.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/wal"
)

func main() {
	var (
		dir     = flag.String("dir", "", "durability directory written by ttcserve -data-dir")
		dump    = flag.Bool("dump", false, "print every committed batch (seq, change kinds)")
		quiet   = flag.Bool("q", false, "suppress the report; exit status only")
		compact = flag.Bool("compact", false, "compact sealed segments by change key (server must not be running)")
		dryRun  = flag.Bool("compact-dry-run", false, "report what -compact would supersede without modifying anything")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ttcwal: -dir is required")
		os.Exit(2)
	}
	if *dump && *quiet {
		fmt.Fprintln(os.Stderr, "ttcwal: -dump and -q are mutually exclusive")
		os.Exit(2)
	}
	if *compact && *dryRun {
		fmt.Fprintln(os.Stderr, "ttcwal: -compact and -compact-dry-run are mutually exclusive")
		os.Exit(2)
	}
	if (*compact || *dryRun) && (*dump || *quiet) {
		fmt.Fprintln(os.Stderr, "ttcwal: compaction and inspection flags are mutually exclusive")
		os.Exit(2)
	}

	if *compact || *dryRun {
		rep, err := wal.CompactDir(*dir, *dryRun)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttcwal:", err)
			os.Exit(1)
		}
		printCompaction(rep)
		return
	}

	var visit func(segment string, offset int64, b wal.Batch)
	if *dump {
		visit = func(segment string, offset int64, b wal.Batch) {
			fmt.Printf("%s @%d seq=%d changes=%d %s\n",
				segment, offset, b.Seq, len(b.Changes), summarizeChanges(b.Changes))
		}
	}
	rep, err := wal.Verify(*dir, visit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcwal:", err)
		os.Exit(1)
	}
	if !*quiet {
		printReport(rep)
	}
	if rep.Damaged() {
		os.Exit(1)
	}
}

// printCompaction renders a compaction (or dry-run) report: how much of
// the sealed history — split insertions vs removals, the distinction
// model.ChangeSet.InsertCount/RemovalCount draws — survived change-key
// supersession.
func printCompaction(rep wal.CompactionReport) {
	verb := "compacted"
	if rep.DryRun {
		verb = "would compact"
	}
	fmt.Printf("%s %d of %d sealed segment(s), %d batch(es)\n",
		verb, rep.CompactedSegments, rep.SealedSegments, rep.Batches)
	fmt.Printf("  changes:  %d -> %d (inserts %d -> %d, removals %d -> %d)\n",
		rep.ChangesIn, rep.ChangesOut, rep.InsertsIn, rep.InsertsOut, rep.RemovalsIn, rep.RemovalsOut)
	fmt.Printf("  bytes:    %d -> %d (%d reclaimed)\n", rep.BytesIn, rep.BytesOut, rep.BytesIn-rep.BytesOut)
	if rep.SealedSegments == 0 {
		fmt.Println("  (nothing sealed: the newest segment is always left for the server)")
	}
}

// summarizeChanges renders a batch's change kinds compactly, e.g.
// "AddUser×2 AddLike×1".
func summarizeChanges(changes []model.Change) string {
	counts := make(map[model.ChangeKind]int)
	var order []model.ChangeKind
	for _, ch := range changes {
		if counts[ch.Kind] == 0 {
			order = append(order, ch.Kind)
		}
		counts[ch.Kind]++
	}
	out := ""
	for i, k := range order {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s×%d", k, counts[k])
	}
	return out
}

func printReport(rep *wal.Report) {
	fmt.Printf("snapshots: %d\n", len(rep.Snapshots))
	for _, s := range rep.Snapshots {
		status := "ok"
		if s.Err != "" {
			status = "INVALID: " + s.Err
		}
		fmt.Printf("  %s  %d bytes  seq=%d  %s\n", s.Name, s.Bytes, s.Seq, status)
	}
	fmt.Printf("segments: %d\n", len(rep.Segments))
	for _, s := range rep.Segments {
		status := "ok"
		if s.Err != "" {
			status = fmt.Sprintf("DAMAGED at offset %d: %s", s.Offset, s.Err)
		}
		fmt.Printf("  %s  %d bytes  %d records  seq %d..%d  %s\n",
			s.Name, s.Bytes, s.Records, s.FirstSeq, s.LastSeq, status)
	}
	fmt.Printf("committed batches: %d (seq %d..%d)\n", rep.Batches, rep.FirstSeq, rep.LastSeq)
	if rep.GapErr != "" {
		fmt.Printf("HISTORY GAP: %s\n", rep.GapErr)
	}
	if rep.Damaged() {
		fmt.Println("status: DAMAGED (a damaged final segment is repaired by truncation on the next ttcserve start; damage elsewhere means lost commits)")
	} else {
		fmt.Println("status: clean")
	}
}
