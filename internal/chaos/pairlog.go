package chaos

import (
	"slices"

	"sanft/internal/sim"
)

// overflowGap bounds how far past the end of a pair's dense log one
// message ID may land and still grow it. VMMC numbers the messages of a
// (source endpoint, destination) pair from 1, so on every pair the log
// stays as long as the messages sent on it; an ID further out goes to the
// pair's overflow map, so one stray ID cannot allocate gigabytes.
const overflowGap = 1 << 16

// msgRec is the oracle's record of one message ID on a pair.
type msgRec struct {
	notes uint32 // completion notifications seen
	sent  bool   // injected (NoteSent; external runs only)
}

// pairLog is the oracle's accounting for one directed pair: a record per
// message ID in a slice indexed by the ID, plus running totals, so
// recording a send or a notification costs no hash-map operation.
type pairLog struct {
	ids []msgRec
	// over holds the records of IDs that were more than overflowGap past
	// the end of ids when first seen; growing ids folds the ones it then
	// covers back in, so every ID lives in exactly one of the two and
	// every key of over is at least len(ids).
	over map[uint64]*msgRec

	sent      int // distinct IDs sent
	delivered int // distinct IDs notified at least once
	notes     int // notifications in total

	last       sim.Time // time of the latest notification
	delivering bool     // last is set: the pair has been notified before
}

// rec returns id's record, growing the dense log to cover id unless id is
// more than overflowGap past its end.
func (l *pairLog) rec(id uint64) *msgRec {
	n := uint64(len(l.ids))
	if id < n {
		return &l.ids[id]
	}
	if id-n > overflowGap {
		m := l.over[id]
		if m == nil {
			if l.over == nil {
				l.over = make(map[uint64]*msgRec)
			}
			m = &msgRec{}
			l.over[id] = m
		}
		return m
	}
	if id < uint64(cap(l.ids)) {
		// Records past len were zeroed at allocation and never written.
		l.ids = l.ids[:id+1]
	} else {
		grown := make([]msgRec, id+1, max(2*cap(l.ids), int(id)+1, 16))
		copy(grown, l.ids)
		l.ids = grown
	}
	if len(l.over) > 0 {
		for oid, m := range l.over {
			if oid <= id {
				l.ids[oid] = *m
				delete(l.over, oid)
			}
		}
	}
	return &l.ids[id]
}

// at returns id's record without creating it.
func (l *pairLog) at(id uint64) msgRec {
	if id < uint64(len(l.ids)) {
		return l.ids[id]
	}
	if m := l.over[id]; m != nil {
		return *m
	}
	return msgRec{}
}

// noteSent records one injected message.
func (l *pairLog) noteSent(id uint64) {
	m := l.rec(id)
	if !m.sent {
		m.sent = true
		l.sent++
	}
}

// noteDelivered records one completion notification.
func (l *pairLog) noteDelivered(id uint64) {
	m := l.rec(id)
	if m.notes == 0 {
		l.delivered++
	}
	m.notes++
	l.notes++
}

// each calls fn for every recorded ID in ascending order: the dense log,
// then the overflow map, all of whose keys lie past the dense log's end.
func (l *pairLog) each(fn func(id uint64, m msgRec)) {
	for id, m := range l.ids {
		fn(uint64(id), m)
	}
	if len(l.over) == 0 {
		return
	}
	ids := make([]uint64, 0, len(l.over))
	for id := range l.over {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fn(id, *l.over[id])
	}
}
