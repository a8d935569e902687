"""Closed-loop load generator for ``varsim serve``.

One thread per connection.  Each sends its next request line only after
it has read the response line to the previous one, so a slower daemon
receives less load.  Latency is measured from the request line written
to the response line read."""

import json
import socket
import threading
import time


class Connection:
    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("rb")

    def request(self, obj):
        """Send one request; return (response dict, seconds)."""
        line = (json.dumps(obj) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(line)
        while True:
            raw = self.rfile.readline()
            dt = time.perf_counter() - t0
            if not raw:
                raise ConnectionError("daemon closed the connection")
            resp = json.loads(raw)
            if "event" not in resp:  # progress events are not responses
                return resp, dt

    def close(self):
        self.rfile.close()
        self.sock.close()


def closed_loop(path, streams, make_request, deadline, timeout=60.0):
    """Drive one connection per stream until ``deadline`` (a
    ``time.perf_counter()`` value).  ``make_request(conn, item, n)``
    turns the n-th item of connection ``conn``'s stream into a request
    dict.  Returns, per connection, a list of records
    ``(item, request, response | None, seconds, error | None)`` in send
    order."""
    results = [[] for _ in streams]

    def drive(conn, stream):
        c = Connection(path, timeout)
        try:
            for n, item in enumerate(stream):
                if time.perf_counter() >= deadline:
                    break
                req = make_request(conn, item, n)
                try:
                    resp, dt = c.request(req)
                    results[conn].append((item, req, resp, dt, None))
                except (OSError, ValueError) as e:
                    results[conn].append((item, req, None, 0.0, str(e)))
                    break
        finally:
            c.close()

    threads = [threading.Thread(target=drive, args=(i, s))
               for i, s in enumerate(streams)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def stats(path, timeout=10.0):
    """The raw response line of the daemon's ``stats`` op."""
    c = Connection(path, timeout)
    try:
        c.sock.sendall(b'{"op":"stats"}\n')
        return c.rfile.readline().decode()
    finally:
        c.close()
