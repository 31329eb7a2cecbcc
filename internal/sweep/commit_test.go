package sweep

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/gcn"
)

// committed sweeps testKernels over the tiny space and returns each
// row's record, in row order.
func committed(t *testing.T) []RowRecord {
	t.Helper()
	m, rep, err := RunContext(context.Background(), testKernels(), tinySpace(t), journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	recs := make([]RowRecord, len(m.Kernels))
	for r := range m.Kernels {
		if recs[r], err = EncodeRow(m, r); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// gate holds a journal write until it is opened.
type gate struct {
	once sync.Once
	c    chan struct{}
}

func newGate() *gate { return &gate{c: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.c) }) }

// openAll opens every gate, so that a test that fails with a write
// still held ends instead of hanging in the journal's Close.
func openAll(gates map[int]*gate) {
	for _, g := range gates {
		g.open()
	}
}

// scriptWrites wraps a journal's writer: write n (the header is write
// 0) is announced on entered, then waits until gates[n], if any, is
// opened, and fails without writing a byte if fails[n] is set. The
// tests buffer entered for more writes than any of them makes, so an
// announcement no test reads never holds a write up.
func scriptWrites(entered chan<- int, gates map[int]*gate, fails map[int]error) func(io.Writer) io.Writer {
	return func(w io.Writer) io.Writer {
		n := 0
		return writerFunc(func(b []byte) (int, error) {
			k := n
			n++
			entered <- k
			if g := gates[k]; g != nil {
				<-g.c
			}
			if err := fails[k]; err != nil {
				return 0, err
			}
			return w.Write(b)
		})
	}
}

// callLog records which rows' callbacks ran, in order, with their
// errors, and which groups the journal appended.
type callLog struct {
	mu     sync.Mutex
	rows   []int
	errs   []error
	groups []GroupAppend
}

func (c *callLog) done(r int) func(error) {
	return func(err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.rows = append(c.rows, r)
		c.errs = append(c.errs, err)
	}
}

func (c *callLog) onAppend(g GroupAppend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = append(c.groups, g)
}

func (c *callLog) ran() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.rows...)
}

// groupRows is how many rows each appended group carried.
func (c *callLog) groupRows() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n []int
	for _, g := range c.groups {
		n = append(n, g.Rows)
	}
	return n
}

// recordsJournal is the journal file AppendRecord makes of recs in
// one append: the bytes the committer must leave, however it grouped
// them.
func recordsJournal(t *testing.T, recs []RowRecord) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.journal")
	j, err := OpenJournal(path, tinySpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendRecord(recs...); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// returnsWithin reports whether done is closed within d.
func returnsWithin(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestCommitCallbacksInQueueOrder: rows committed from one goroutine
// run their callbacks once each, in the order they were queued, with
// nil errors, whatever groups the committer made of them; the groups
// carry every row once, and the file holds exactly the bytes one
// append of every record in that order writes.
func TestCommitCallbacksInQueueOrder(t *testing.T) {
	recs := committed(t)
	var all []RowRecord
	for i := 0; i < 10; i++ {
		all = append(all, recs...)
	}
	var log callLog
	path := filepath.Join(t.TempDir(), "order.journal")
	j, err := OpenJournalWith(path, tinySpace(t), JournalOptions{OnAppend: log.onAppend})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range all {
		j.Commit(rec, log.done(i))
	}
	j.Flush()
	want := make([]int, len(all))
	for i := range want {
		want[i] = i
	}
	if got := log.ran(); !reflect.DeepEqual(got, want) {
		t.Fatalf("callbacks ran for rows %v, want %v", got, want)
	}
	for i, err := range log.errs {
		if err != nil {
			t.Fatalf("row %d settled with %v", i, err)
		}
	}
	sum := 0
	for _, n := range log.groupRows() {
		sum += n
	}
	if sum != len(all) {
		t.Fatalf("groups %v carry %d rows, want %d", log.groupRows(), sum, len(all))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(recordsJournal(t, all)) {
		t.Fatal("the committed journal differs from one append of every record in queue order")
	}
}

// TestCommitBlockedGroupHoldsCallbacksAndFlush: rows queued while a
// group's write is under way go out together as the next group; while
// that group's write is blocked, none of its callbacks has run and
// Flush does not return, and once it lands every callback has run, in
// queue order.
func TestCommitBlockedGroupHoldsCallbacksAndFlush(t *testing.T) {
	recs := committed(t)
	entered := make(chan int, 64)
	gates := map[int]*gate{1: newGate(), 2: newGate()}
	var log callLog
	j, err := OpenJournalWith(filepath.Join(t.TempDir(), "blocked.journal"), tinySpace(t),
		JournalOptions{WrapWriter: scriptWrites(entered, gates, nil), OnAppend: log.onAppend})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	defer openAll(gates)
	<-entered // the header
	j.Commit(recs[0], log.done(0))
	<-entered // the first group is in its write
	for r := 1; r < len(recs); r++ {
		j.Commit(recs[r], log.done(r))
	}
	gates[1].open()
	<-entered // the second group is in its write
	if got := log.ran(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("with the second group's write blocked, callbacks ran for rows %v, want [0]", got)
	}
	flushed := make(chan struct{})
	go func() {
		j.Flush()
		close(flushed)
	}()
	if returnsWithin(flushed, 50*time.Millisecond) {
		t.Fatal("Flush returned while a group's write was blocked")
	}
	if got := log.ran(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("callbacks ran for rows %v of a group whose write is blocked", got)
	}
	gates[2].open()
	if !returnsWithin(flushed, 10*time.Second) {
		t.Fatal("Flush never returned")
	}
	want := make([]int, len(recs))
	for r := range want {
		want[r] = r
	}
	if got := log.ran(); !reflect.DeepEqual(got, want) {
		t.Fatalf("callbacks ran for rows %v, want %v", got, want)
	}
	if got := log.groupRows(); !reflect.DeepEqual(got, []int{1, len(recs) - 1}) {
		t.Fatalf("groups of %v rows, want [1 %d]", got, len(recs)-1)
	}
}

// TestCommitCloseFlushes: Close waits for every queued row's group and
// callback before it closes the file, so the journal reopens with
// every row.
func TestCommitCloseFlushes(t *testing.T) {
	recs := committed(t)
	entered := make(chan int, 64)
	gates := map[int]*gate{1: newGate()}
	var log callLog
	path := filepath.Join(t.TempDir(), "close.journal")
	j, err := OpenJournalWith(path, tinySpace(t), JournalOptions{WrapWriter: scriptWrites(entered, gates, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer openAll(gates)
	<-entered
	for r, rec := range recs {
		j.Commit(rec, log.done(r))
	}
	<-entered
	closed := make(chan struct{})
	var cerr error
	go func() {
		cerr = j.Close()
		close(closed)
	}()
	if returnsWithin(closed, 50*time.Millisecond) {
		t.Fatal("Close returned while a group's write was blocked")
	}
	gates[1].open()
	if !returnsWithin(closed, 10*time.Second) {
		t.Fatal("Close never returned")
	}
	if cerr != nil {
		t.Fatal(cerr)
	}
	if got := log.ran(); len(got) != len(recs) {
		t.Fatalf("Close returned after %d of %d callbacks", len(got), len(recs))
	}
	for r, err := range log.errs {
		if err != nil {
			t.Fatalf("row %d settled with %v", r, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(recordsJournal(t, recs)) {
		t.Fatal("the closed journal does not hold every committed row")
	}
}

// TestCommitFlushJoinsCommitter: once Flush returns, no committer
// goroutine is left, round after round of rows committed from several
// goroutines at once.
func TestCommitFlushJoinsCommitter(t *testing.T) {
	recs := committed(t)
	j, err := OpenJournal(filepath.Join(t.TempDir(), "join.journal"), tinySpace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, rec := range recs {
					j.Commit(rec, nil)
				}
			}()
		}
		wg.Wait()
		j.Flush()
		checkJoined(t, before, "after Flush")
	}
}

// TestCommitFailedGroupSettlesEveryRow: a group whose append fails
// gives every row in it that error and leaves none of them in the
// file; a record of another space settles with its own error and
// stays out of its group's append; the next group appends as if
// nothing had happened.
func TestCommitFailedGroupSettlesEveryRow(t *testing.T) {
	recs := committed(t)
	if len(recs) < 3 {
		t.Fatalf("%d rows; the test needs 3", len(recs))
	}
	injected := errors.New("injected write failure")
	entered := make(chan int, 64)
	gates := map[int]*gate{1: newGate()}
	var log callLog
	path := filepath.Join(t.TempDir(), "fail.journal")
	j, err := OpenJournalWith(path, tinySpace(t), JournalOptions{
		WrapWriter: scriptWrites(entered, gates, map[int]error{2: injected}), OnAppend: log.onAppend})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	defer openAll(gates)
	short, err := EncodePlanes("short", []float64{1}, []float64{1}, make([]gcn.Bound, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	j.Commit(recs[0], log.done(0))
	<-entered
	j.Commit(recs[1], log.done(1))
	j.Commit(short, log.done(-1))
	j.Commit(recs[2], log.done(2))
	gates[1].open()
	j.Flush()
	j.Commit(recs[0], log.done(3))
	j.Flush()

	if got := log.ran(); !reflect.DeepEqual(got, []int{0, 1, -1, 2, 3}) {
		t.Fatalf("callbacks ran for %v, want [0 1 -1 2 3]", got)
	}
	errs := log.errs
	if errs[0] != nil || errs[4] != nil {
		t.Fatalf("rows of the appended groups settled with %v and %v", errs[0], errs[4])
	}
	if !errors.Is(errs[1], injected) || !errors.Is(errs[3], injected) || errs[1] != errs[3] {
		t.Fatalf("the failed group's rows settled with %v and %v, want its append's error", errs[1], errs[3])
	}
	if errs[2] == nil || errors.Is(errs[2], injected) {
		t.Fatalf("the record of another space settled with %v, want an error of its own", errs[2])
	}
	var rows []int
	for _, g := range log.groups {
		rows = append(rows, g.Rows)
		if (g.Err != nil) != (g.Rows == 2) {
			t.Fatalf("group of %d rows appended with %v", g.Rows, g.Err)
		}
	}
	if !reflect.DeepEqual(rows, []int{1, 2, 1}) {
		t.Fatalf("groups of %v rows, want [1 2 1]", rows)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(recordsJournal(t, []RowRecord{recs[0], recs[0]})) {
		t.Fatal("the journal holds rows of the failed group, or lacks the appended ones")
	}
}
