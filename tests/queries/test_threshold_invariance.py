"""The library's thresholds, folds and network-local chains, frozen.

Every library query compares only ``sum`` outputs with ``gt``, so the one
threshold rule (:func:`repro.core.operators.aggregate_predicates`) must
leave each query's thresholds, its folded filters and its per-switch
chains exactly as they were under the three earlier, disagreeing
definitions. The values below were recorded from that earlier code.
"""

import pytest

from repro.core.operators import aggregate_predicates
from repro.network.runtime import _localized_query
from repro.planner.refinement import trailing_threshold_fields
from repro.queries.library import QUERY_LIBRARY, build_queries
from repro.switch.compiler import compile_subquery

FROZEN = {
    'newly_opened_tcp_conns': {
        'thresholds': {0: {'count': 60}},
        'folded': [(0, 2, 'filter(count gt 60)')],
        'local': {
            (2, True): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 30)',),
            (2, False): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
            (4, True): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 15)',),
            (4, False): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
        },
    },
    'ssh_brute_force': {
        'thresholds': {0: {'count': 30}},
        'folded': [(0, 4, 'filter(count gt 30)')],
        'local': {
            (2, True): ('filter(ipv4.proto eq 6 and tcp.dPort eq 22) -> map(ipv4.dIP, ipv4.sIP, pktlen) -> distinct() -> map(ipv4.dIP, pktlen, count=) -> reduce(keys=(ipv4.dIP, pktlen), sum) -> filter(count gt 15)',),
            (2, False): ('filter(ipv4.proto eq 6 and tcp.dPort eq 22) -> map(ipv4.dIP, ipv4.sIP, pktlen) -> distinct() -> map(ipv4.dIP, pktlen, count=) -> reduce(keys=(ipv4.dIP, pktlen), sum)',),
            (4, True): ('filter(ipv4.proto eq 6 and tcp.dPort eq 22) -> map(ipv4.dIP, ipv4.sIP, pktlen) -> distinct() -> map(ipv4.dIP, pktlen, count=) -> reduce(keys=(ipv4.dIP, pktlen), sum) -> filter(count gt 7)',),
            (4, False): ('filter(ipv4.proto eq 6 and tcp.dPort eq 22) -> map(ipv4.dIP, ipv4.sIP, pktlen) -> distinct() -> map(ipv4.dIP, pktlen, count=) -> reduce(keys=(ipv4.dIP, pktlen), sum)',),
        },
    },
    'superspreader': {
        'thresholds': {0: {'count': 120}},
        'folded': [(0, 3, 'filter(count gt 120)')],
        'local': {
            (2, True): ('map(ipv4.sIP, ipv4.dIP) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum) -> filter(count gt 60)',),
            (2, False): ('map(ipv4.sIP, ipv4.dIP) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum)',),
            (4, True): ('map(ipv4.sIP, ipv4.dIP) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum) -> filter(count gt 30)',),
            (4, False): ('map(ipv4.sIP, ipv4.dIP) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum)',),
        },
    },
    'port_scan': {
        'thresholds': {0: {'count': 80}},
        'folded': [(0, 4, 'filter(count gt 80)')],
        'local': {
            (2, True): ('filter(ipv4.proto eq 6) -> map(ipv4.sIP, tcp.dPort) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum) -> filter(count gt 40)',),
            (2, False): ('filter(ipv4.proto eq 6) -> map(ipv4.sIP, tcp.dPort) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum)',),
            (4, True): ('filter(ipv4.proto eq 6) -> map(ipv4.sIP, tcp.dPort) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum) -> filter(count gt 20)',),
            (4, False): ('filter(ipv4.proto eq 6) -> map(ipv4.sIP, tcp.dPort) -> distinct() -> map(ipv4.sIP, count=) -> reduce(keys=(ipv4.sIP), sum)',),
        },
    },
    'ddos': {
        'thresholds': {0: {'count': 150}},
        'folded': [(0, 3, 'filter(count gt 150)')],
        'local': {
            (2, True): ('map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 75)',),
            (2, False): ('map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
            (4, True): ('map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 37)',),
            (4, False): ('map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
        },
    },
    'syn_flood': {
        'thresholds': {0: {}, 1: {}},
        'folded': [],
        'local': {
            (2, True): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags eq 16) -> map(ipv4.dIP, acks=) -> reduce(keys=(ipv4.dIP), sum)'),
            (2, False): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags eq 16) -> map(ipv4.dIP, acks=) -> reduce(keys=(ipv4.dIP), sum)'),
            (4, True): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags eq 16) -> map(ipv4.dIP, acks=) -> reduce(keys=(ipv4.dIP), sum)'),
            (4, False): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags eq 16) -> map(ipv4.dIP, acks=) -> reduce(keys=(ipv4.dIP), sum)'),
        },
    },
    'incomplete_flows': {
        'thresholds': {0: {}, 1: {}},
        'folded': [],
        'local': {
            (2, True): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags mask 1) -> map(ipv4.dIP, fins=) -> reduce(keys=(ipv4.dIP), sum)'),
            (2, False): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags mask 1) -> map(ipv4.dIP, fins=) -> reduce(keys=(ipv4.dIP), sum)'),
            (4, True): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags mask 1) -> map(ipv4.dIP, fins=) -> reduce(keys=(ipv4.dIP), sum)'),
            (4, False): ('filter(tcp.flags eq 2) -> map(ipv4.dIP, syns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(tcp.flags mask 1) -> map(ipv4.dIP, fins=) -> reduce(keys=(ipv4.dIP), sum)'),
        },
    },
    'slowloris': {
        'thresholds': {0: {}, 1: {'bytes': 3000}},
        'folded': [(1, 2, 'filter(bytes gt 3000)')],
        'local': {
            (2, True): ('filter(ipv4.proto eq 6) -> map(ipv4.dIP, ipv4.sIP, tcp.sPort) -> distinct() -> map(ipv4.dIP, conns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(ipv4.proto eq 6) -> map(ipv4.dIP, bytes=) -> reduce(keys=(ipv4.dIP), sum) -> filter(bytes gt 1500)'),
            (2, False): ('filter(ipv4.proto eq 6) -> map(ipv4.dIP, ipv4.sIP, tcp.sPort) -> distinct() -> map(ipv4.dIP, conns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(ipv4.proto eq 6) -> map(ipv4.dIP, bytes=) -> reduce(keys=(ipv4.dIP), sum)'),
            (4, True): ('filter(ipv4.proto eq 6) -> map(ipv4.dIP, ipv4.sIP, tcp.sPort) -> distinct() -> map(ipv4.dIP, conns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(ipv4.proto eq 6) -> map(ipv4.dIP, bytes=) -> reduce(keys=(ipv4.dIP), sum) -> filter(bytes gt 750)'),
            (4, False): ('filter(ipv4.proto eq 6) -> map(ipv4.dIP, ipv4.sIP, tcp.sPort) -> distinct() -> map(ipv4.dIP, conns=) -> reduce(keys=(ipv4.dIP), sum)', 'filter(ipv4.proto eq 6) -> map(ipv4.dIP, bytes=) -> reduce(keys=(ipv4.dIP), sum)'),
        },
    },
    'dns_tunneling': {
        'thresholds': {0: {'count': 60}},
        'folded': [(0, 4, 'filter(count gt 60)')],
        'local': {
            (2, True): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1) -> map(ipv4.dIP, dns.rr.name) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 30)',),
            (2, False): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1) -> map(ipv4.dIP, dns.rr.name) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
            (4, True): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1) -> map(ipv4.dIP, dns.rr.name) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 15)',),
            (4, False): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1) -> map(ipv4.dIP, dns.rr.name) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
        },
    },
    'zorro': {
        'thresholds': {0: {}, 1: {'cnt1': 50}},
        'folded': [(1, 2, 'filter(cnt1 gt 50)')],
        'local': {
            (2, True): ('filter(ipv4.proto eq 6 and tcp.dPort eq 23)', 'filter(ipv4.proto eq 6 and tcp.dPort eq 23) -> map(ipv4.dIP, probe_len, cnt1=) -> reduce(keys=(ipv4.dIP, probe_len), sum) -> filter(cnt1 gt 25)'),
            (2, False): ('filter(ipv4.proto eq 6 and tcp.dPort eq 23)', 'filter(ipv4.proto eq 6 and tcp.dPort eq 23) -> map(ipv4.dIP, probe_len, cnt1=) -> reduce(keys=(ipv4.dIP, probe_len), sum)'),
            (4, True): ('filter(ipv4.proto eq 6 and tcp.dPort eq 23)', 'filter(ipv4.proto eq 6 and tcp.dPort eq 23) -> map(ipv4.dIP, probe_len, cnt1=) -> reduce(keys=(ipv4.dIP, probe_len), sum) -> filter(cnt1 gt 12)'),
            (4, False): ('filter(ipv4.proto eq 6 and tcp.dPort eq 23)', 'filter(ipv4.proto eq 6 and tcp.dPort eq 23) -> map(ipv4.dIP, probe_len, cnt1=) -> reduce(keys=(ipv4.dIP, probe_len), sum)'),
        },
    },
    'dns_reflection': {
        'thresholds': {0: {'count': 100}},
        'folded': [(0, 4, 'filter(count gt 100)')],
        'local': {
            (2, True): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1 and pktlen gt 1000) -> map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 50)',),
            (2, False): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1 and pktlen gt 1000) -> map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
            (4, True): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1 and pktlen gt 1000) -> map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum) -> filter(count gt 25)',),
            (4, False): ('filter(ipv4.proto eq 17 and udp.sPort eq 53 and dns.qr eq 1 and pktlen gt 1000) -> map(ipv4.dIP, ipv4.sIP) -> distinct() -> map(ipv4.dIP, count=) -> reduce(keys=(ipv4.dIP), sum)',),
        },
    },
}


@pytest.fixture(scope="module")
def library():
    return {query.name: query for query in build_queries(list(QUERY_LIBRARY))}


def test_every_library_query_is_frozen(library):
    assert sorted(FROZEN) == sorted(library) and len(library) == 11


@pytest.mark.parametrize("name", sorted(QUERY_LIBRARY))
class TestLibraryThresholds:
    def test_thresholds(self, library, name):
        query = library[name]
        got = {sq.subid: trailing_threshold_fields(sq) for sq in query.subqueries}
        assert got == FROZEN[name]["thresholds"]

    def test_no_bounds(self, library, name):
        for sq in library[name].subqueries:
            assert all(aggregate_predicates(sq.operators).values()), sq.name

    def test_folded_tables(self, library, name):
        folded = sorted(
            (sq.subid, table.operator_index, table.folded_filter.describe())
            for sq in library[name].subqueries
            for table in compile_subquery(sq).tables
            if table.folded_filter is not None
        )
        assert folded == FROZEN[name]["folded"]

    @pytest.mark.parametrize("switches", [2, 4])
    @pytest.mark.parametrize("scale", [True, False], ids=["scaled", "exact"])
    def test_localized_chains(self, library, name, switches, scale):
        local = _localized_query(library[name], switches, scale)
        got = tuple(sq.describe() for sq in local.subqueries)
        assert got == FROZEN[name]["local"][(switches, scale)]
