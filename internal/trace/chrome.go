package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"adapt/internal/comm"
)

// Chrome trace-event export (the "JSON Array Format" with a top-level
// object), loadable in Perfetto / chrome://tracing:
//
//   - one process per run (pid = run index + 1), one thread per rank,
//   - paired post/done records become "X" complete slices,
//   - matched receives become "s"/"f" flow arrows send→recv,
//   - everything unpaired (faults, crashes, detector verdicts, redrives,
//     epochs, orphan posts) becomes an "i" instant,
//   - ts/dur are microseconds with nanosecond precision (fixed 3 decimals).
//
// The writer is hand-rolled and append-ordered, so a given []Run always
// produces byte-identical output — the determinism gates diff these files
// directly. A top-level "adaptRuns" key (ignored by Perfetto) carries the
// raw records as integer tuples so adapt trace can reload a file without
// loss; ReadChrome is its inverse.

// RecordFields is the arity of one encoded record tuple in "adaptRuns".
const RecordFields = 11

// WriteChrome writes the runs as one Chrome trace-event JSON document.
func WriteChrome(w io.Writer, runs []Run) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("{\n\"traceEvents\": [\n")
	first := true
	ev := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	for i, run := range runs {
		pid := i + 1
		ev(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			pid, strconv.Quote(run.Name)))
		for _, rank := range runRanks(run) {
			ev(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"rank %d"}}`,
				pid, rank, rank))
		}
		emitRunEvents(ev, pid, run)
	}
	bw.WriteString("\n],\n\"displayTimeUnit\": \"ns\",\n\"adaptRuns\": [\n")
	for i, run := range runs {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "{\"name\":%s,\"dropped\":%d,\"records\":[", strconv.Quote(run.Name), run.Dropped)
		for j, r := range run.Records {
			if j > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "[%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d]",
				r.ID, r.Parent, r.Link, int64(r.At), int64(r.Dur),
				r.Rank, r.Kind, r.Peer, int64(r.Tag), r.Size, r.Xid)
		}
		bw.WriteString("]}")
	}
	bw.WriteString("\n]\n}\n")
	return bw.Flush()
}

func runRanks(run Run) []int {
	seen := map[int]bool{}
	var ranks []int
	for _, r := range run.Records {
		if !seen[r.Rank] {
			seen[r.Rank] = true
			ranks = append(ranks, r.Rank)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// usec renders a nanosecond duration as fixed-point microseconds. The
// fixed 3-decimal form keeps output byte-stable and gives Perfetto full
// nanosecond resolution.
func usec(d time.Duration) string {
	ns := int64(d)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

func spanName(post Record) string {
	switch post.Kind {
	case SendPost:
		return fmt.Sprintf("send %s → %d", post.Tag, post.Peer)
	case RecvPost:
		return fmt.Sprintf("recv %s ← %d", post.Tag, post.Peer)
	case CollStart:
		return fmt.Sprintf("%s/%d root=%d", post.Tag.Kind(), post.Tag.Seq(), post.Peer)
	case Compute:
		return "compute"
	}
	return post.Kind.String()
}

func instantName(r Record) string {
	switch r.Kind {
	case Epoch:
		return fmt.Sprintf("epoch %d %s", r.Size, r.Tag.Kind())
	case Redrive, Suspect, Confirm, Repair:
		return fmt.Sprintf("%s peer=%d", r.Kind, r.Peer)
	case FaultDrop, FaultRetry, FaultTimeout:
		return fmt.Sprintf("%s %s xid=%d", r.Kind, r.Tag, r.Xid)
	}
	return r.Kind.String()
}

// emitRunEvents renders one run. Pairing: a completion record points at
// its post via Parent (SendDone→SendPost, RecvDone→RecvPost) or Link
// (CollEnd→CollStart); the pair renders as one slice spanning post→done.
func emitRunEvents(ev func(string), pid int, run Run) {
	byID := make(map[uint64]Record, len(run.Records))
	doneOf := make(map[uint64]Record) // post id → completion record
	for _, r := range run.Records {
		byID[r.ID] = r
		switch r.Kind {
		case SendDone, RecvDone:
			if r.Parent != 0 {
				doneOf[r.Parent] = r
			}
		case CollEnd:
			if r.Link != 0 {
				doneOf[r.Link] = r
			}
		}
	}
	for _, r := range run.Records {
		switch r.Kind {
		case SendPost, RecvPost, CollStart:
			if done, ok := doneOf[r.ID]; ok {
				ev(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s,"args":{"id":%d,"size":%d}}`,
					pid, r.Rank, usec(r.At), usec(done.At-r.At), strconv.Quote(spanName(r)), r.ID, r.Size))
			} else {
				ev(fmt.Sprintf(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":%s,"args":{"id":%d}}`,
					pid, r.Rank, usec(r.At), strconv.Quote("unfinished "+spanName(r)), r.ID))
			}
		case Compute:
			ev(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"compute","args":{"id":%d,"size":%d}}`,
				pid, r.Rank, usec(r.At), usec(r.Dur), r.ID, r.Size))
		case SendDone, CollEnd:
			// rendered as part of the paired slice
		case RecvDone:
			// Flow arrow from the matched send's slice to the recv slice.
			if sp, ok := byID[r.Link]; ok && sp.Kind == SendPost {
				ev(fmt.Sprintf(`{"ph":"s","cat":"msg","id":%d,"pid":%d,"tid":%d,"ts":%s,"name":%s}`,
					r.ID, pid, sp.Rank, usec(sp.At), strconv.Quote(sp.Tag.String())))
				ev(fmt.Sprintf(`{"ph":"f","bp":"e","cat":"msg","id":%d,"pid":%d,"tid":%d,"ts":%s,"name":%s}`,
					r.ID, pid, r.Rank, usec(r.At), strconv.Quote(sp.Tag.String())))
			}
		default:
			ev(fmt.Sprintf(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":%s,"args":{"id":%d}}`,
				pid, r.Rank, usec(r.At), strconv.Quote(instantName(r)), r.ID))
		}
	}
}

// chromeDoc mirrors only the sections ReadChrome needs.
type chromeDoc struct {
	AdaptRuns []chromeRun `json:"adaptRuns"`
}

type chromeRun struct {
	Name    string    `json:"name"`
	Dropped int       `json:"dropped"`
	Records [][]int64 `json:"records"`
}

// ReadChrome reloads runs from a file written by WriteChrome via its
// lossless "adaptRuns" section.
func ReadChrome(r io.Reader) ([]Run, error) {
	var doc chromeDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: parse chrome file: %w", err)
	}
	if doc.AdaptRuns == nil {
		return nil, fmt.Errorf("trace: no adaptRuns section (not written by this tool?)")
	}
	runs := make([]Run, 0, len(doc.AdaptRuns))
	for _, cr := range doc.AdaptRuns {
		run := Run{Name: cr.Name, Dropped: cr.Dropped}
		run.Records = make([]Record, 0, len(cr.Records))
		for i, t := range cr.Records {
			if len(t) != RecordFields {
				return nil, fmt.Errorf("trace: run %q record %d has %d fields, want %d", cr.Name, i, len(t), RecordFields)
			}
			run.Records = append(run.Records, Record{
				ID:     uint64(t[0]),
				Parent: uint64(t[1]),
				Link:   uint64(t[2]),
				At:     time.Duration(t[3]),
				Dur:    time.Duration(t[4]),
				Rank:   int(t[5]),
				Kind:   Kind(t[6]),
				Peer:   int(t[7]),
				Tag:    comm.Tag(t[8]),
				Size:   int(t[9]),
				Xid:    uint64(t[10]),
			})
		}
		runs = append(runs, run)
	}
	return runs, nil
}
