#!/usr/bin/env python3
"""File-system recovery with logical copy/sort, and why naive dumps fail.

The paper's file-system example (section 1.1): ``copy(X, Y)`` and
``sort(X, Y)`` log only the two file identifiers.  This example:

1. runs a recoverable filesystem with copies and sorts;
2. demonstrates the Figure 1 failure mode on the filesystem: a
   *conventional* fuzzy dump taken while a copy's flush dependencies are
   in flight produces an unrecoverable backup, while the paper's engine
   handles the identical interleaving;
3. restores the namespace and file contents after a media failure.

Run:  python examples/filesystem_copy_sort.py
"""

from repro import BackupConfig, Database
from repro.core import NaiveFuzzyDump
from repro.appfs import FileSystem
from repro.ids import PageId


def build_fs(db):
    fs = FileSystem(db)
    # Place the copy target at a low slot (copied early by the sweep)
    # and the source at a high slot (copied late) — the Figure 1 shape.
    fs.create("archive")
    for i in range(8):
        fs.create(f"filler-{i}")
    fs.create("measurements")
    fs.write(
        "measurements",
        tuple((k, f"sample-{k}") for k in (5, 3, 9, 1, 7)),
    )
    return fs


def straddling_copy(db, fs, backup_driver, copy_some, finish):
    """Copy a file while the backup frontier sits between source and
    target locations — the Figure 1 interleaving, filesystem flavoured."""
    backup_driver()
    copy_some(3)  # frontier passes the low slots (directory + dst)...
    fs.copy("measurements", "archive")  # ...then the logical copy runs
    # Source keeps changing after the copy (flush dependency!).
    fs.append_record("measurements", 11, "sample-11")
    db.checkpoint()
    return finish()


def main():
    print("=== naive fuzzy dump vs the engine on the same interleaving ===")
    results = {}
    for kind in ("naive", "engine"):
        db = Database(pages_per_partition=[16], policy="general")
        fs = build_fs(db)
        db.checkpoint()
        if kind == "naive":
            naive = NaiveFuzzyDump(db.cm, storage=db.storage)
            backup = straddling_copy(
                db, fs,
                naive.start_backup, naive.copy_some,
                naive.run_to_completion,
            )
        else:
            backup = straddling_copy(
                db, fs,
                lambda: db.start_backup(BackupConfig(steps=4)), db.backup_step,
                db.run_backup,
            )
        db.media_failure()
        outcome = db.media_recover(backup=backup)
        results[kind] = outcome
        print(f"  {kind:7s} backup -> media recovery "
              f"{'OK' if outcome.ok else 'FAILED'} "
              f"({len(outcome.diffs)} wrong pages)")
    assert not results["naive"].ok and results["engine"].ok

    print("\n=== full filesystem session with online backup ===")
    db = Database(pages_per_partition=[16], policy="general")
    fs = build_fs(db)
    db.start_backup(BackupConfig(steps=4))
    while db.backup_in_progress():
        db.backup_step(2)
        fs.append_record("measurements", 20 + db.log.end_lsn % 10, "late")
        db.install_some(1)
    fs.sort("measurements", "sorted")
    fs.copy("sorted", "sorted-copy")
    db.media_failure()
    outcome = db.media_recover()
    print(f"  {outcome.summary()}")
    fresh = FileSystem(db)
    print(f"  namespace after recovery: {fresh.listdir()}")
    assert fresh.read("sorted-copy") == fresh.read("sorted")
    print("  sorted copy matches — logical ops replayed correctly ✓")


if __name__ == "__main__":
    main()
