package journal

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Reader streams a journal directory's records back in timestamp order.
// Segments are read sequentially (they were written by one goroutine), but
// concurrent operations can journal slightly out of their timestamp order,
// so the reader runs a bounded reorder buffer over the raw stream: records
// are released in At order as long as the disorder stays inside
// reorderWindow records (the writer's ring capacity bounds real disorder
// far below that).
//
// Robustness: every record's CRC is validated. A record that stops
// mid-frame or fails its CRC at the TAIL of the FINAL segment is a torn
// write (crash mid-append); the reader ends the stream cleanly there and
// reports it via Torn. The same damage anywhere else is corruption and
// errors out.
type Reader struct {
	segs   []string
	segIdx int
	f      *os.File
	dec    *segmentDecoder

	h       recHeap
	window  int
	ordinal uint64
	lastAt  time.Time
	rawDone bool
	torn    bool
	tornErr error
}

// reorderWindow is the default reorder-buffer depth.
const reorderWindow = 512

// OpenDir opens every segment in dir for streaming. A directory with no
// segments yields an immediately-empty reader.
func OpenDir(dir string) (*Reader, error) {
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	return &Reader{segs: segs, window: reorderWindow}, nil
}

// Torn reports whether the stream ended at a torn final record; TornErr
// describes the tear.
func (r *Reader) Torn() bool { return r.torn }

// TornErr returns the tear detail (nil when the journal ended cleanly).
func (r *Reader) TornErr() error { return r.tornErr }

// Close releases the currently open segment.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// rawNext returns the next record in file order, crossing segment
// boundaries and assigning Seq ordinals (1-based, identical to the ones the
// Writer assigned: drops never reach the file).
func (r *Reader) rawNext() (Record, error) {
	for {
		if r.dec == nil {
			if r.segIdx >= len(r.segs) {
				return Record{}, io.EOF
			}
			f, err := os.Open(r.segs[r.segIdx])
			if err != nil {
				return Record{}, err
			}
			dec, err := newSegmentDecoder(f)
			if err != nil {
				f.Close()
				if errors.Is(err, ErrTorn) && r.segIdx == len(r.segs)-1 {
					r.torn, r.tornErr = true, err
					return Record{}, io.EOF
				}
				return Record{}, fmt.Errorf("%s: %w", r.segs[r.segIdx], err)
			}
			r.f, r.dec = f, dec
			r.segIdx++
		}
		rec, err := r.dec.next()
		switch {
		case err == nil:
			r.ordinal++
			rec.Seq = r.ordinal
			return rec, nil
		case err == io.EOF:
			r.Close()
			r.dec = nil
		case errors.Is(err, ErrTorn) && r.segIdx == len(r.segs):
			// Tail damage on the final segment: a crash tore the last
			// append. Everything before it was already returned.
			r.Close()
			r.dec = nil
			r.torn, r.tornErr = true, err
			return Record{}, io.EOF
		default:
			r.Close()
			r.dec = nil
			return Record{}, fmt.Errorf("%s: %w", r.segs[r.segIdx-1], err)
		}
	}
}

// Next returns the next record in timestamp order; io.EOF at the end.
func (r *Reader) Next() (Record, error) {
	for !r.rawDone && r.h.Len() < r.window {
		rec, err := r.rawNext()
		if err == io.EOF {
			r.rawDone = true
			break
		}
		if err != nil {
			return Record{}, err
		}
		// Timestampless records (events built by hand, older journals'
		// fast-path hits) sort at the position of the last timestamped
		// record before them.
		key := rec.At
		if key.IsZero() {
			key = r.lastAt
		} else {
			r.lastAt = key
		}
		heap.Push(&r.h, recEntry{key: key, rec: rec})
	}
	if r.h.Len() == 0 {
		return Record{}, io.EOF
	}
	return heap.Pop(&r.h).(recEntry).rec, nil
}

// ReadAll streams the whole journal into memory, in timestamp order,
// tolerating a torn tail. It reports whether the tail was torn.
func ReadAll(dir string) (recs []Record, torn bool, err error) {
	r, err := OpenDir(dir)
	if err != nil {
		return nil, false, err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, r.Torn(), nil
		}
		if err != nil {
			return recs, r.Torn(), err
		}
		recs = append(recs, rec)
	}
}

// recEntry pairs a record with its reorder key.
type recEntry struct {
	key time.Time
	rec Record
}

// recHeap is a min-heap by (key, Seq) — Seq breaks timestamp ties with
// file order, keeping the stream deterministic.
type recHeap []recEntry

func (h recHeap) Len() int { return len(h) }
func (h recHeap) Less(i, j int) bool {
	if h[i].key.Equal(h[j].key) {
		return h[i].rec.Seq < h[j].rec.Seq
	}
	return h[i].key.Before(h[j].key)
}
func (h recHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x any)   { *h = append(*h, x.(recEntry)) }
func (h *recHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
