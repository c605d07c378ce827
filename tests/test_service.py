"""The study service: cell identity, the cache, the scheduler, HTTP.

The correctness wall this suite pins, layer by layer:

* a cell's identity key captures everything that determines its
  estimate (job content, block size, kernel) and nothing that doesn't
  (study membership, axis labels) — so overlapping studies share cells
  and ``exact``/``fast`` can never alias;
* a cache hit is served **verbatim**: the estimate bytes equal the
  ones recomputation would produce, and resubmitting an identical spec
  yields a byte-identical ResultSet payload;
* concurrent submissions compute each unique cell exactly once — the
  scheduler's claim/wait arbitration plus the content-addressed store.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ResultSet, Session, Study
from repro.api.plans import (
    UncacheableCell,
    cell_identity,
    describe_cell_component,
)
from repro.api.results import json_dumps_exact
from repro.api.scheduler import CellScheduler
from repro.errors import ConfigurationError
from repro.service import (
    CellCache,
    StudyService,
    fetch_stats,
    make_server,
    submit_study,
    wait_until_ready,
)

ROW_SPEC = {"kind": "row", "table": "1a", "reps": 16, "seed": 9,
            "u": 0.8, "lam": 1.4e-3}
#: Contains ROW_SPEC's row: same table, same seed -> shared cells.
TABLE_SPEC = {"kind": "table", "table": "1a", "reps": 16, "seed": 9}


def _plans(spec=ROW_SPEC):
    return Study(spec).cells()


# ---------------------------------------------------------------------------
# cell identity


class TestCellIdentity:
    def test_identity_is_stable_and_content_addressed(self):
        plans_a = _plans()
        plans_b = _plans()
        ids_a = [cell_identity(p.job, block_size=256) for p in plans_a]
        ids_b = [cell_identity(p.job, block_size=256) for p in plans_b]
        assert ids_a == ids_b  # same content, fresh objects
        assert len(set(ids_a)) == len(ids_a)  # distinct cells, distinct keys

    def test_identity_excludes_study_membership(self):
        """The same physical cell in two different studies has ONE
        identity — that is what lets overlapping studies share work."""
        row_ids = {
            cell_identity(p.job, block_size=256) for p in _plans(ROW_SPEC)
        }
        table_ids = {
            cell_identity(p.job, block_size=256) for p in _plans(TABLE_SPEC)
        }
        assert row_ids <= table_ids
        assert len(table_ids - row_ids) == len(table_ids) - len(row_ids)

    def test_block_size_changes_the_identity(self):
        job = _plans()[0].job
        assert cell_identity(job, block_size=256) != cell_identity(
            job, block_size=128
        )

    def test_exact_and_fast_kernels_never_alias(self):
        import dataclasses

        job = _plans()[0].job
        fast = dataclasses.replace(job, kernel="fast")
        assert cell_identity(job, block_size=256) != cell_identity(
            fast, block_size=256
        )

    def test_closure_components_are_uncacheable_not_misidentified(self):
        def local_factory():  # a '<locals>' qualname — no stable identity
            return None

        with pytest.raises(UncacheableCell):
            describe_cell_component(local_factory)
        import dataclasses

        job = dataclasses.replace(
            _plans()[0].job, policy_factory=local_factory
        )
        assert cell_identity(job, block_size=256) is None

    def test_float_identity_is_exact_not_stringly_rounded(self):
        assert describe_cell_component(0.1) != describe_cell_component(
            0.1 + 2 ** -54
        )


# ---------------------------------------------------------------------------
# the content-addressed store


def _one_record():
    study = Study(ROW_SPEC)
    return study.run().records[0]


class TestCellCache:
    def test_round_trip_preserves_the_record_exactly(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"))
        record = _one_record()
        cache.put("ab" + "0" * 62, record)
        # A cold cache (fresh memory map) must reproduce it from disk.
        cold = CellCache(str(tmp_path / "cells"))
        again = cold.get("ab" + "0" * 62)
        assert again is not None
        assert json_dumps_exact(again.to_dict()) == json_dumps_exact(
            record.to_dict()
        )

    def test_miss_is_none(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"))
        assert cache.get("cd" + "0" * 62) is None
        assert ("cd" + "0" * 62) not in cache

    def test_corrupt_entry_reads_as_a_miss(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"), memory=False)
        identity = "ef" + "0" * 62
        cache.put(identity, _one_record())
        path = cache.path_for(identity)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn json")
        assert cache.get(identity) is None

    def test_foreign_format_reads_as_a_miss(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"), memory=False)
        identity = "01" + "0" * 62
        cache.put(identity, _one_record())
        path = cache.path_for(identity)
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["format"] = "somebody.else/9"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))
        assert cache.get(identity) is None

    def test_first_writer_wins(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"), memory=False)
        identity = "23" + "0" * 62
        record = _one_record()
        cache.put(identity, record)
        first_bytes = open(cache.path_for(identity), "rb").read()
        cache.put(identity, record)  # duplicate put: no rewrite
        assert open(cache.path_for(identity), "rb").read() == first_bytes
        assert len(cache) == 1

    def test_unwritable_directory_is_a_clean_error(self, tmp_path):
        target = tmp_path / "file-not-dir"
        target.write_text("x")
        with pytest.raises(ConfigurationError, match="cell cache"):
            CellCache(str(target))


# ---------------------------------------------------------------------------
# the scheduler


class TestCellScheduler:
    def test_study_via_scheduler_equals_direct_run(self):
        direct = Study(ROW_SPEC).run()
        with Session() as session:
            scheduler = CellScheduler(session)
            via = Study(ROW_SPEC).run(scheduler=scheduler)
        assert via.same_values(direct)
        for a, b in zip(direct.records, via.records):
            assert json_dumps_exact(a.to_dict()["estimate"]) == \
                json_dumps_exact(b.to_dict()["estimate"])

    def test_session_and_scheduler_are_mutually_exclusive(self):
        with Session() as session:
            scheduler = CellScheduler(session)
            with pytest.raises(ConfigurationError, match="not both"):
                Study(ROW_SPEC).run(session, scheduler=scheduler)

    def test_cache_hit_is_byte_identical_to_recomputation(self, tmp_path):
        """THE correctness wall: a hit's estimate bytes equal the ones
        recomputing the cell would produce."""
        cache = CellCache(str(tmp_path / "cells"))
        with Session() as session:
            warm = Study(ROW_SPEC).run(
                scheduler=CellScheduler(session, cache=cache)
            )
            hit = Study(ROW_SPEC).run(
                scheduler=CellScheduler(session, cache=cache)
            )
        recomputed = Study(ROW_SPEC).run()
        assert json_dumps_exact(hit.to_dict()) == json_dumps_exact(
            warm.to_dict()
        )  # the full set, provenance included, served verbatim
        for a, b in zip(recomputed.records, hit.records):
            assert json_dumps_exact(a.to_dict()["estimate"]) == \
                json_dumps_exact(b.to_dict()["estimate"])

    def test_overlapping_studies_share_cached_cells(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"))
        with Session() as session:
            scheduler = CellScheduler(session, cache=cache)
            row = Study(ROW_SPEC).run(scheduler=scheduler)
            assert scheduler.hits == 0
            table = Study(TABLE_SPEC).run(scheduler=scheduler)
        assert scheduler.hits == len(row)
        assert scheduler.misses == len(table)
        # The shared cells' estimates are served verbatim.
        table_by_scheme = {
            r.axes["scheme"]: r for r in table.records
            if r.axes.get("u") == ROW_SPEC["u"]
            and r.axes.get("lam") == ROW_SPEC["lam"]
        }
        for record in row.records:
            shared = table_by_scheme[record.axes["scheme"]]
            assert json_dumps_exact(shared.to_dict()["estimate"]) == \
                json_dumps_exact(record.to_dict()["estimate"])

    def test_concurrent_submissions_compute_each_cell_once(self, tmp_path):
        """N threads, same study, one scheduler: the backend sees each
        unique cell exactly once (claims + cache, not luck)."""
        from repro.api import scheduler as scheduler_mod

        computed = []
        computed_lock = threading.Lock()
        real = scheduler_mod.timed_run_cells

        def counting(session, jobs):
            with computed_lock:
                computed.extend(jobs)
            return real(session, jobs)

        cache = CellCache(str(tmp_path / "cells"))
        n_threads = 4
        outputs = [None] * n_threads
        errors = []
        barrier = threading.Barrier(n_threads)
        try:
            scheduler_mod.timed_run_cells = counting
            with Session() as session:
                scheduler = CellScheduler(session, cache=cache)

                def run(i):
                    barrier.wait()
                    try:
                        outputs[i] = Study(ROW_SPEC).run(scheduler=scheduler)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            scheduler_mod.timed_run_cells = real
        assert not errors
        assert len(computed) == len(_plans())  # each unique cell once
        baseline = Study(ROW_SPEC).run()
        for result in outputs:
            assert result is not None and result.same_values(baseline)

    def test_exact_and_fast_results_never_alias_in_the_cache(self, tmp_path):
        from repro.experiments.config import ExecutionSettings

        cache = CellCache(str(tmp_path / "cells"))
        with Session() as session:
            exact = Study(ROW_SPEC).run(
                scheduler=CellScheduler(session, cache=cache)
            )
        fast_settings = ExecutionSettings(kernel="fast")
        with Session(fast_settings) as session:
            scheduler = CellScheduler(session, cache=cache)
            fast = Study(ROW_SPEC).run(scheduler=scheduler)
            # Nothing the exact run cached may be served to a fast run.
            assert scheduler.hits == 0
        assert {r.kernel for r in exact.records} == {"exact"}
        assert {r.kernel for r in fast.records} == {"fast"}


# ---------------------------------------------------------------------------
# the HTTP service


@pytest.fixture()
def service_url(tmp_path):
    service = StudyService(cache_dir=str(tmp_path / "cells"))
    server = make_server(service, "http://127.0.0.1:0")
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://{host}:{port}"
    wait_until_ready(url, timeout=10.0)
    try:
        yield url
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5.0)


class TestHTTPService:
    def test_submit_returns_the_resultset_and_counts(self, service_url):
        envelope = submit_study(service_url, ROW_SPEC)
        assert envelope["computed"] == envelope["cells"]
        assert envelope["cached"] == 0
        via = ResultSet.from_dict(envelope["result"])
        assert via.same_values(Study(ROW_SPEC).run())

    def test_resubmission_is_all_hits_and_byte_identical(self, service_url):
        first = submit_study(service_url, ROW_SPEC)
        second = submit_study(service_url, ROW_SPEC)
        assert second["computed"] == 0
        assert second["cached"] == second["cells"]
        assert json_dumps_exact(first["result"]) == json_dumps_exact(
            second["result"]
        )

    def test_overlapping_submissions_share_cells(self, service_url):
        row = submit_study(service_url, ROW_SPEC)
        table = submit_study(service_url, TABLE_SPEC)
        assert table["cached"] == row["cells"]
        assert table["computed"] == table["cells"] - row["cells"]
        stats = fetch_stats(service_url)
        assert stats["scheduler"]["hits"] == row["cells"]
        assert stats["cache"]["entries"] == table["cells"]
        assert stats["submissions"] == 2

    def test_streaming_reports_every_cell_then_the_result(self, service_url):
        events = []
        envelope = submit_study(
            service_url, ROW_SPEC, stream=True, on_event=events.append
        )
        tags = [event["event"] for event in events]
        assert tags[0] == "accepted"
        assert tags[-1] == "result"
        cell_events = [e for e in events if e["event"] == "cell"]
        assert len(cell_events) == envelope["cells"]
        assert ResultSet.from_dict(envelope["result"]).same_values(
            Study(ROW_SPEC).run()
        )

    def test_malformed_spec_is_a_clean_400(self, service_url):
        with pytest.raises(ConfigurationError, match="rejected"):
            submit_study(service_url, {"kind": "warp-drive"})

    def test_malformed_json_body_is_a_clean_400(self, service_url):
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        request = Request(
            service_url + "/studies",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_endpoint_is_404(self, service_url):
        from urllib.error import HTTPError
        from urllib.request import urlopen

        with pytest.raises(HTTPError) as excinfo:
            urlopen(service_url + "/nope", timeout=10.0)
        assert excinfo.value.code == 404

    def test_unreachable_service_is_a_clean_error(self):
        with pytest.raises(ConfigurationError, match="cannot reach"):
            submit_study(
                "http://127.0.0.1:1", ROW_SPEC, timeout=2.0
            )


# ---------------------------------------------------------------------------
# the CLI verbs


class TestSubmitCommand:
    def test_submit_saves_a_resultset_compatible_with_run(
        self, tmp_path, service_url, capsys
    ):
        from repro.cli import main

        spec_path = tmp_path / "row.spec.json"
        spec_path.write_text(json.dumps(ROW_SPEC))
        out = tmp_path / "via-service.json"
        csv = tmp_path / "via-service.csv"
        assert main([
            "submit", str(spec_path), "--url", service_url,
            "--out", str(out), "--csv", str(csv), "--stream",
        ]) == 0
        text = capsys.readouterr().out
        assert "computed" in text and "spec_hash" in text
        saved = ResultSet.load(str(out))
        assert saved.same_values(Study(ROW_SPEC).run())
        header = csv.read_text().splitlines()[0]
        assert "kernel" in header.split(",")

    def test_submit_loads_no_numpy(self, tmp_path, service_url, numpy_blocked_env):
        # A submission only posts and writes JSON: with numpy blocked it
        # still saves the service's answer, value for value.
        spec_path = tmp_path / "row.spec.json"
        spec_path.write_text(json.dumps(ROW_SPEC))
        out = tmp_path / "blocked.json"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "submit", str(spec_path),
             "--url", service_url, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=numpy_blocked_env,
        )
        assert done.returncode == 0, done.stderr
        assert ResultSet.load(str(out)).same_values(Study(ROW_SPEC).run())

    def test_submit_against_nothing_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "row.spec.json"
        spec_path.write_text(json.dumps(ROW_SPEC))
        assert main([
            "submit", str(spec_path), "--url", "http://127.0.0.1:1",
            "--timeout", "2",
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_missing_spec_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "submit", str(tmp_path / "absent.json"),
            "--url", "http://127.0.0.1:1",
        ]) == 2
        assert "cannot read spec file" in capsys.readouterr().err


class TestServeEntrypoint:
    def test_serve_forever_binds_and_reports_readiness(self, tmp_path, capsys):
        from repro.service.server import serve_forever

        ready = threading.Event()
        holder = {}

        def run():
            # Port 0: the OS picks; the readiness line reports it.
            holder["rc"] = serve_forever(
                None, str(tmp_path / "cells"), "http://127.0.0.1:0",
                ready=ready,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10.0)
        # The daemon is actually serving; shut it down via its socket.
        out = capsys.readouterr().out
        assert "repro-serve: listening on http://127.0.0.1:" in out
        url = out.split("listening on ")[1].split()[0]
        wait_until_ready(url, timeout=10.0)
        submit_study(url, ROW_SPEC)
        # serve_forever only exits on KeyboardInterrupt; the daemon
        # thread is reaped with the test process.


# ---------------------------------------------------------------------------
# hostile clients: malformed framing, saturation, stalled connections


def _raw_http(url, request_bytes, *, timeout=10.0):
    """One raw-socket HTTP exchange (for requests urllib refuses to send)."""
    import socket

    host, port = url.replace("http://", "").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request_bytes)
        sock.settimeout(timeout)
        data = b""
        while True:
            try:
                chunk = sock.recv(4096)
            except TimeoutError:
                break
            if not chunk:
                break
            data += chunk
        return data


class TestHostileClients:
    def test_negative_content_length_is_a_clean_400(self, service_url):
        """``Content-Length: -1`` must be rejected before any body read
        — a negative length reaching ``rfile.read`` means read-to-EOF,
        i.e. a connection the sender controls forever."""
        response = _raw_http(
            service_url,
            b"POST /studies HTTP/1.1\r\n"
            b"Host: test\r\nConnection: close\r\n"
            b"Content-Length: -1\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in response
        # The service survived the malformed request.
        assert fetch_stats(service_url)["submissions"] == 0

    def test_non_integer_content_length_is_a_clean_400(self, service_url):
        for value in (b"banana", b"12.5", b"1e3", b"+7"):
            response = _raw_http(
                service_url,
                b"POST /studies HTTP/1.1\r\n"
                b"Host: test\r\nConnection: close\r\n"
                b"Content-Length: " + value + b"\r\n\r\n",
            )
            assert response.startswith(b"HTTP/1.1 400"), value
        assert fetch_stats(service_url)["submissions"] == 0

    @pytest.mark.parametrize(
        "path", [b"/studies", b"/studies?stream=1"], ids=["plain", "stream"]
    )
    def test_malformed_numbers_are_a_clean_400(self, service_url, path):
        """Non-finite numbers, and values the model rejects while the
        spec expands its cells, get a 400 on both endpoints — never a
        dropped connection or a 500."""
        bodies = (
            b'{"kind":"row","table":"1a","u":0.76,"lam":Infinity,"reps":4}',
            b'{"kind":"row","table":"1a","u":0.76,"lam":1e300,"reps":4}',
            b'{"kind":"row","table":"1a","u":NaN,"lam":0.0014,"reps":4}',
            b'{"kind":"row","table":"1a","u":0.76,"lam":-0.001,"reps":4}',
            b'{"kind":"fixed_m","ms":[0],"reps":4}',
            b'{"kind":"fixed_m","ms":[2,-1],"reps":4}',
        )
        for body in bodies:
            response = _raw_http(
                service_url,
                b"POST " + path + b" HTTP/1.1\r\n"
                b"Host: test\r\nConnection: close\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                + body,
            )
            assert response.startswith(b"HTTP/1.1 400"), (body, response)
        assert fetch_stats(service_url)["submissions"] == 0

    def test_admission_bound_rejects_with_503_and_retry_after(
        self, tmp_path, monkeypatch
    ):
        """With max_pending=1 and one submission parked in compute, the
        next POST gets an immediate 503 carrying Retry-After, the
        rejected counter ticks, and the parked submission still
        completes normally."""
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        from repro.api import scheduler as scheduler_mod
        from repro.errors import ServiceUnavailableError

        entered = threading.Event()
        release = threading.Event()
        real = scheduler_mod.timed_run_cells

        def blocking(session, jobs):
            entered.set()
            assert release.wait(30.0)
            return real(session, jobs)

        monkeypatch.setattr(scheduler_mod, "timed_run_cells", blocking)
        service = StudyService(
            cache_dir=str(tmp_path / "cells"), max_pending=1
        )
        server = make_server(service, "http://127.0.0.1:0")
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        first = {}

        def submit_first():
            first["envelope"] = submit_study(url, ROW_SPEC, retries=0)

        first_thread = threading.Thread(target=submit_first)
        try:
            wait_until_ready(url, timeout=10.0)
            first_thread.start()
            assert entered.wait(10.0)
            body = json_dumps_exact(ROW_SPEC).encode()
            with pytest.raises(HTTPError) as excinfo:
                urlopen(
                    Request(url + "/studies", data=body), timeout=10.0
                ).read()
            assert excinfo.value.code == 503
            assert excinfo.value.headers.get("Retry-After") == "2"
            # The client maps exhausted 503s to ServiceUnavailableError.
            with pytest.raises(ServiceUnavailableError, match="saturated"):
                submit_study(url, ROW_SPEC, retries=0)
            stats = fetch_stats(url)
            assert stats["max_pending"] == 1
            assert stats["active"] == 1
            assert stats["rejected"] >= 2
        finally:
            release.set()
            first_thread.join(timeout=30.0)
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5.0)
        assert first["envelope"]["cells"] == len(_plans())

    def test_client_retries_through_503_until_capacity_frees(
        self, tmp_path, monkeypatch
    ):
        """The retry loop turns a transient 503 into success once the
        parked submission releases its admission slot."""
        from repro.api import scheduler as scheduler_mod

        entered = threading.Event()
        release = threading.Event()
        real = scheduler_mod.timed_run_cells

        def blocking(session, jobs):
            entered.set()
            assert release.wait(30.0)
            return real(session, jobs)

        monkeypatch.setattr(scheduler_mod, "timed_run_cells", blocking)
        service = StudyService(
            cache_dir=str(tmp_path / "cells"), max_pending=1
        )
        server = make_server(service, "http://127.0.0.1:0")
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        outcomes = {}

        def submit_named(name):
            outcomes[name] = submit_study(url, ROW_SPEC, retries=8)

        try:
            wait_until_ready(url, timeout=10.0)
            holder = threading.Thread(target=submit_named, args=("holder",))
            holder.start()
            assert entered.wait(10.0)
            retrier = threading.Thread(
                target=submit_named, args=("retrier",)
            )
            retrier.start()
            time.sleep(0.5)  # let the retrier eat at least one 503
            release.set()
            holder.join(timeout=30.0)
            retrier.join(timeout=30.0)
            stats = fetch_stats(url)
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5.0)
        assert not holder.is_alive() and not retrier.is_alive()
        assert outcomes["holder"]["cells"] == len(_plans())
        assert outcomes["retrier"]["cells"] == len(_plans())
        assert stats["rejected"] >= 1  # the retrier really was bounced
        baseline = Study(ROW_SPEC).run()
        for envelope in outcomes.values():
            assert ResultSet.from_dict(envelope["result"]).same_values(
                baseline
            )

    def test_client_retries_through_a_service_restart(self, tmp_path):
        """Connection-refused is transient during a daemon restart; the
        retry loop rides it out once the service comes back."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        url = f"http://127.0.0.1:{port}"
        holder = {}

        def start_late():
            time.sleep(0.6)
            service = StudyService(cache_dir=str(tmp_path / "cells"))
            server = make_server(service, url)
            holder["server"] = server
            holder["service"] = service
            holder["up"] = True
            server.serve_forever()

        thread = threading.Thread(target=start_late, daemon=True)
        thread.start()
        try:
            envelope = submit_study(url, ROW_SPEC, retries=8)
            assert envelope["cells"] == len(_plans())
        finally:
            if holder.get("up"):
                holder["server"].shutdown()
                holder["server"].server_close()
                holder["service"].close()
            thread.join(timeout=5.0)

    def test_stalled_request_body_is_reaped_by_the_timeout(self, tmp_path):
        """A client that promises a body and never sends it must not pin
        a handler thread: the per-connection timeout closes it, and the
        server keeps serving."""
        import socket

        service = StudyService(cache_dir=str(tmp_path / "cells"))
        server = make_server(
            service, "http://127.0.0.1:0", request_timeout=0.5
        )
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            wait_until_ready(url, timeout=10.0)
            started = time.monotonic()
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(
                    b"POST /studies HTTP/1.1\r\n"
                    b"Host: test\r\nContent-Length: 100\r\n\r\nstall"
                )
                sock.settimeout(10.0)
                # The server's read times out and it closes the
                # connection without a response.
                assert sock.recv(4096) == b""
            assert time.monotonic() - started < 8.0
            # The service is still healthy for well-behaved clients.
            assert fetch_stats(url)["submissions"] == 0
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5.0)

    def test_stats_expose_the_admission_counters(self, tmp_path):
        service = StudyService(
            cache_dir=str(tmp_path / "cells"), max_pending=5, fair_share=3
        )
        try:
            stats = service.stats()
            assert stats["max_pending"] == 5
            assert stats["active"] == 0
            assert stats["rejected"] == 0
            assert stats["scheduler"]["fair_share"] == 3
        finally:
            service.close()
        unbounded = StudyService(cache_dir=str(tmp_path / "cells2"))
        try:
            assert unbounded.stats()["max_pending"] is None
        finally:
            unbounded.close()


# ---------------------------------------------------------------------------
# fair-share scheduling


class TestFairShare:
    def test_fair_share_chunks_the_compute_batches(self, monkeypatch):
        """fair_share=2 turns one N-cell batch into ceil(N/2) chunks —
        same cells, same results, chunked turnstile turns."""
        from repro.api import scheduler as scheduler_mod

        sizes = []
        real = scheduler_mod.timed_run_cells

        def recording(session, jobs):
            sizes.append(len(jobs))
            return real(session, jobs)

        monkeypatch.setattr(scheduler_mod, "timed_run_cells", recording)
        with Session() as session:
            scheduler = CellScheduler(session, fair_share=2)
            result = Study(ROW_SPEC).run(scheduler=scheduler)
        n = len(_plans())
        expected = [2] * (n // 2) + ([n % 2] if n % 2 else [])
        assert sizes == expected
        assert result.same_values(Study(ROW_SPEC).run())

    def test_fair_share_must_be_positive(self):
        from repro.errors import ParameterError

        with Session() as session:
            with pytest.raises(ParameterError, match="fair_share"):
                CellScheduler(session, fair_share=0)

    def test_small_study_is_not_starved_behind_a_big_one(self, monkeypatch):
        """The FIFO turnstile interleaves chunked submissions: a small
        study arriving mid-way through a big one finishes before the
        big one's tail instead of queueing behind the whole thing."""
        from repro.api import scheduler as scheduler_mod

        # Disjoint seeds so the two studies share no cell identities
        # (shared cells would dedupe instead of compete for turns).
        big_spec = {"kind": "table", "table": "1a", "reps": 16, "seed": 21}
        small_spec = {"kind": "row", "table": "1a", "reps": 16, "seed": 22,
                      "u": 0.8, "lam": 1.4e-3}
        order = []
        order_lock = threading.Lock()
        real = scheduler_mod.timed_run_cells

        def recording(session, jobs):
            with order_lock:
                order.append(threading.current_thread().name)
            time.sleep(0.05)  # widen the interleaving window
            return real(session, jobs)

        monkeypatch.setattr(scheduler_mod, "timed_run_cells", recording)
        errors = []
        with Session() as session:
            scheduler = CellScheduler(session, fair_share=1)

            def run(name, spec):
                try:
                    Study(spec).run(scheduler=scheduler)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            big = threading.Thread(
                target=run, args=("big", big_spec), name="big"
            )
            big.start()
            while not order:  # the big study is mid-chunk
                time.sleep(0.005)
            small = threading.Thread(
                target=run, args=("small", small_spec), name="small"
            )
            small.start()
            small.join(timeout=60.0)
            big.join(timeout=60.0)
        assert not errors
        assert not big.is_alive() and not small.is_alive()
        # The small study's chunks ran before the big study finished.
        last_small = max(
            i for i, name in enumerate(order) if name == "small"
        )
        last_big = max(i for i, name in enumerate(order) if name == "big")
        assert last_small < last_big
