"""End-to-end snapshot-isolation behaviour through the SQL layer."""

import pytest

from repro.core.database import Database
from repro.core.session import Session
from repro.errors import InvalidTransactionStateError, WriteConflictError


#: write conflicts must be detected alike on both stores
STORES = ["TABLE", "ROW TABLE"]


def accounts_db(store: str = "TABLE") -> Database:
    database = Database()
    database.execute(f"CREATE {store} accounts (id INT PRIMARY KEY, balance DOUBLE)")
    database.execute("INSERT INTO accounts VALUES (1, 100.0), (2, 50.0)")
    return database


@pytest.fixture
def db():
    return accounts_db()


def test_repeatable_reads_within_transaction(db):
    session = Session(db)
    session.begin()
    before = session.query("SELECT SUM(balance) FROM accounts").scalar()
    db.execute("INSERT INTO accounts VALUES (3, 25.0)")
    after = session.query("SELECT SUM(balance) FROM accounts").scalar()
    assert before == after == 150.0
    session.commit()
    assert db.query("SELECT SUM(balance) FROM accounts").scalar() == 175.0


# The two tests below loop over the stores rather than take a parameter,
# which would change their ids.


def test_write_conflict_on_same_row():
    for store in STORES:
        db = accounts_db(store)
        s1 = Session(db)
        s2 = Session(db)
        s1.begin()
        s2.begin()
        s1.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        with pytest.raises(WriteConflictError):
            s2.execute("UPDATE accounts SET balance = 99 WHERE id = 1")
        s1.commit()
        s2.rollback()
        assert db.query("SELECT balance FROM accounts WHERE id = 1").scalar() == 0


def test_disjoint_writes_do_not_conflict():
    for store in STORES:
        db = accounts_db(store)
        s1 = Session(db)
        s2 = Session(db)
        s1.begin()
        s2.begin()
        s1.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
        s2.execute("UPDATE accounts SET balance = 2 WHERE id = 2")
        s1.commit()
        s2.commit()
        rows = db.query("SELECT balance FROM accounts ORDER BY id").rows
        assert rows == [[1.0], [2.0]]


@pytest.mark.parametrize("store", STORES)
def test_delete_conflicts_with_concurrent_update(store):
    db = accounts_db(store)
    s1 = Session(db)
    s2 = Session(db)
    s1.begin()
    s2.begin()
    s1.execute("UPDATE accounts SET balance = balance * 2 WHERE balance > 60")
    with pytest.raises(WriteConflictError):
        s2.execute("DELETE FROM accounts WHERE id = 1")
    # the other row is free, and s1's new version is invisible to s2
    assert s2.execute("DELETE FROM accounts WHERE id = 2").rowcount == 1
    s1.commit()
    s2.rollback()
    assert db.query("SELECT id, balance FROM accounts ORDER BY id").rows == [
        [1, 200.0],
        [2, 50.0],
    ]


def test_atomicity_of_multi_statement_transaction(db):
    session = Session(db)
    session.begin()
    session.execute("UPDATE accounts SET balance = balance - 30 WHERE id = 1")
    session.execute("UPDATE accounts SET balance = balance + 30 WHERE id = 2")
    session.rollback()
    rows = db.query("SELECT balance FROM accounts ORDER BY id").rows
    assert rows == [[100.0], [50.0]]


def test_context_manager_commits_and_rolls_back(db):
    with Session(db) as session:
        session.begin()
        session.execute("INSERT INTO accounts VALUES (5, 1.0)")
    assert db.query("SELECT COUNT(*) FROM accounts").scalar() == 3

    with pytest.raises(RuntimeError):
        with Session(db) as session:
            session.begin()
            session.execute("INSERT INTO accounts VALUES (6, 1.0)")
            raise RuntimeError("boom")
    assert db.query("SELECT COUNT(*) FROM accounts").scalar() == 3


def test_nested_begin_rejected(db):
    session = Session(db)
    session.begin()
    with pytest.raises(InvalidTransactionStateError):
        session.begin()


def test_commit_without_begin_rejected(db):
    with pytest.raises(InvalidTransactionStateError):
        Session(db).commit()


def test_sql_level_transaction_statements(db):
    session = Session(db)
    session.execute("BEGIN")
    session.execute("DELETE FROM accounts WHERE id = 1")
    session.execute("ROLLBACK")
    assert db.query("SELECT COUNT(*) FROM accounts").scalar() == 2
