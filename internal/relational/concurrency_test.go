package relational

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentReadersWithWriter races N document-order reader goroutines
// against a writer doing pos-renumber updates, failing statements, and
// explicit rollbacks. Because transactions hold the writer lock from BEGIN
// to COMMIT/ROLLBACK and every committed state in this workload equals the
// seed state, each read must observe exactly the seed multiset — a torn
// statement or a lost undo shows up as a wrong row count or wrong pos sum.
// Run under -race this also proves the lock discipline over the stats
// counters, the shape cache, and the AST plan caches.
func TestConcurrentReadersWithWriter(t *testing.T) {
	const (
		parents = 8
		perPar  = 25
		rows    = parents * perPar
		readers = 4
		cycles  = 120
	)
	db := NewDB()
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(64))")
	db.MustExec("CREATE ORDERED INDEX ip ON item (parentId, pos)")
	wantPosSum := int64(0)
	for i := 0; i < rows; i++ {
		pos := i % perPar
		wantPosSum += int64(pos)
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d, 'n%d')", i+1, i/perPar, pos, i+1))
	}
	before := dbDump(db)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers+1)

	// Writer: every committed state equals the seed state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < cycles; i++ {
			par := i % parents
			// Explicit transaction, rolled back: pos-renumber plus a delete.
			tx := db.Begin()
			if _, err := tx.Exec(fmt.Sprintf("UPDATE item SET pos = pos + 1000 WHERE parentId = %d", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if _, err := tx.Exec(fmt.Sprintf("DELETE FROM item WHERE parentId = %d AND pos >= 1010", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if err := tx.Rollback(); err != nil {
				errs <- err
				return
			}
			// Implicit statement transaction, failing mid-statement: the
			// shift collides with an existing id after moving earlier rows.
			if _, err := db.Exec("UPDATE item SET id = id + 1"); err == nil {
				errs <- fmt.Errorf("expected unique violation")
				return
			}
			// Committed transaction whose net effect is zero.
			tx = db.Begin()
			if _, err := tx.Exec(fmt.Sprintf("UPDATE item SET pos = pos + 500 WHERE parentId = %d", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if _, err := tx.Exec(fmt.Sprintf("UPDATE item SET pos = pos - 500 WHERE parentId = %d", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: streaming document-order scans; every observed version must
	// be the seed multiset, in (parentId, pos) order.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, posSum := 0, int64(0)
				lastPar, lastPos := int64(-1), int64(-1)
				_, err := db.QueryEach("SELECT parentId, pos FROM item ORDER BY parentId, pos", func(row []Value) error {
					par, pos := row[0].MustInt(), row[1].MustInt()
					if par < lastPar || (par == lastPar && pos < lastPos) {
						return fmt.Errorf("out of order: (%d,%d) after (%d,%d)", par, pos, lastPar, lastPos)
					}
					lastPar, lastPos = par, pos
					n++
					posSum += pos
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if n != rows || posSum != wantPosSum {
					errs <- fmt.Errorf("reader observed uncommitted state: %d rows (want %d), pos sum %d (want %d)",
						n, rows, posSum, wantPosSum)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := dbDump(db); got != before {
		t.Errorf("state drifted across the stress run:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	// Snapshot/Restore still round-trips after the transaction history.
	snap := db.Snapshot()
	db.MustExec("DELETE FROM item WHERE parentId = 0")
	db.Restore(snap)
	if got := dbDump(db); got != before {
		t.Errorf("Snapshot/Restore after stress run:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}

// TestConcurrentReadersOnly: pure readers scale without tripping the race
// detector over the plan caches and stats (regression guard for the shared
// shape-cached AST).
func TestConcurrentReadersOnly(t *testing.T) {
	db := txnTestDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rows, err := db.Query("SELECT id, pos FROM item WHERE parentId = 2 ORDER BY pos")
				if err != nil {
					errs <- err
					return
				}
				if len(rows.Data) != 5 {
					errs <- fmt.Errorf("got %d rows, want 5", len(rows.Data))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// buildReaderDoc loads a parent/child document with holes in the rowid
// space: ~40 parents, 300-600 kids. grp is deliberately unindexed
// (transient hash joins); (parentId, pos) and (id) carry ordered indexes
// (elided sorts, range scans); parentId carries a hash index (indexed
// probes).
func buildReaderDoc(t testing.TB, seed int64) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE Par (id INTEGER, grp INTEGER, name VARCHAR(20))`)
	db.MustExec(`CREATE TABLE Kid (id INTEGER, parentId INTEGER, grp INTEGER, pos INTEGER, val VARCHAR(20))`)
	db.MustExec(`CREATE INDEX pk_pid ON Kid (parentId)`)
	db.MustExec(`CREATE ORDERED INDEX ok_id ON Kid (id)`)
	db.MustExec(`CREATE ORDERED INDEX ok_pp ON Kid (parentId, pos)`)
	rng := rand.New(rand.NewSource(seed))
	nPar := 32 + rng.Intn(16)
	for p := 1; p <= nPar; p++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO Par VALUES (%d, %d, 'p%d')`, p, rng.Intn(6), p))
	}
	nKid := 300 + rng.Intn(300)
	for _, i := range rng.Perm(nKid) {
		val := fmt.Sprintf("'v%d'", rng.Intn(8))
		if rng.Intn(9) == 0 {
			val = "NULL"
		}
		db.MustExec(fmt.Sprintf(`INSERT INTO Kid VALUES (%d, %d, %d, %d, %s)`,
			1000+i, 1+rng.Intn(nPar), rng.Intn(6), rng.Intn(10), val))
	}
	for i := 0; i < 30; i++ {
		db.MustExec(fmt.Sprintf(`DELETE FROM Kid WHERE id = %d`, 1000+rng.Intn(nKid)))
	}
	return db
}

// readerQueries covers heap scans, range and ordered scans (elided sorts),
// indexed and transient hash joins, aggregation, DISTINCT, merges, CTE
// chains, and IN-subqueries.
var readerQueries = []string{
	`SELECT id, pos, val FROM Kid WHERE pos >= 2`,
	`SELECT id, parentId FROM Kid`,
	`SELECT id FROM Kid WHERE id > 1100 AND id <= 1400 ORDER BY id`,
	`SELECT parentId, pos, id FROM Kid ORDER BY parentId, pos`,
	`SELECT parentId, pos, id FROM Kid ORDER BY parentId DESC, pos DESC`,
	`SELECT pos, val, id FROM Kid ORDER BY val, id`,
	`SELECT P.name, K.id FROM Par P, Kid K WHERE K.parentId = P.id AND K.pos < 4`,
	`SELECT P.id, K.id FROM Par P, Kid K WHERE K.grp = P.grp ORDER BY 1, 2`,
	`SELECT COUNT(id), MIN(pos), MAX(id) FROM Kid WHERE pos >= 1`,
	`SELECT COUNT(id) + MIN(id) FROM Kid`,
	`SELECT DISTINCT grp FROM Kid ORDER BY grp`,
	`SELECT DISTINCT val FROM Kid WHERE pos > 1`,
	`SELECT id FROM Kid WHERE pos = 1 UNION ALL SELECT id FROM Kid WHERE pos = 2 ORDER BY id`,
	`WITH a(id, grp) AS (SELECT id, grp FROM Kid WHERE pos >= 1),
	      b(id) AS (SELECT a.id FROM a, Par P WHERE a.grp = P.grp)
	 SELECT id FROM b ORDER BY id`,
	`SELECT id FROM Kid WHERE parentId IN (SELECT id FROM Par WHERE grp = 2) ORDER BY id`,
	`SELECT K.parentId, COUNT(K.id) FROM Kid K, Par P WHERE K.parentId = P.id AND P.grp < 4`,
}

// TestConcurrentParallelReaders runs every query shape from several client
// goroutines in parallel under the shared statement lock: each result must
// be the byte-identical row sequence a lone reader gets, and the race
// detector checks the shared plan caches, intern table and stats counters.
func TestConcurrentParallelReaders(t *testing.T) {
	db := buildReaderDoc(t, 17)
	want := make([]string, len(readerQueries))
	for i, sql := range readerQueries {
		r, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rowsString(r)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(readerQueries); i++ {
				q := (i + g) % len(readerQueries)
				r, err := db.Query(readerQueries[q])
				if err != nil {
					errs <- fmt.Errorf("reader %d: %q: %v", g, readerQueries[q], err)
					return
				}
				if got := rowsString(r); got != want[q] {
					errs <- fmt.Errorf("reader %d: %q diverged under concurrency", g, readerQueries[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
