"""P4-16 code generation for compiled sub-queries.

The Sonata data-plane driver compiles each partitioned query to P4 for the
BMV2/Tofino targets; this module reproduces that emission so that (a) every
plan has an inspectable switch program artifact and (b) the Table 3
lines-of-code comparison can be regenerated (the paper counts the P4 LoC a
hand-written implementation of each query needs).

The generated program follows the v1model structure: header definitions,
per-query metadata structs, a parser, ingress match-action tables and
register actions, a mirror (report) decision, and a deparser.
"""

from __future__ import annotations

from repro.core.errors import CompilationError
from repro.core.expressions import Const, Difference, FieldRef, Prefixed, Quantized
from repro.core.operators import Distinct, Filter, Map, Reduce
from repro.switch.compiler import CompiledSubQuery
from repro.switch.tables import LogicalTable

_HEADER_BOILERPLATE = """\
#include <core.p4>
#include <v1model.p4>

typedef bit<48> mac_addr_t;
typedef bit<32> ipv4_addr_t;

header ethernet_t {
    mac_addr_t dst_addr;
    mac_addr_t src_addr;
    bit<16>    ether_type;
}

header ipv4_t {
    bit<4>  version;
    bit<4>  ihl;
    bit<8>  diffserv;
    bit<16> total_len;
    bit<16> identification;
    bit<3>  flags;
    bit<13> frag_offset;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<16> hdr_checksum;
    ipv4_addr_t src_addr;
    ipv4_addr_t dst_addr;
}

header tcp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<32> seq_no;
    bit<32> ack_no;
    bit<4>  data_offset;
    bit<4>  res;
    bit<8>  flags;
    bit<16> window;
    bit<16> checksum;
    bit<16> urgent_ptr;
}

header udp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<16> length;
    bit<16> checksum;
}

header dns_t {
    bit<16> id;
    bit<1>  qr;
    bit<4>  opcode;
    bit<1>  aa;
    bit<1>  tc;
    bit<1>  rd;
    bit<1>  ra;
    bit<3>  z;
    bit<4>  rcode;
    bit<16> qdcount;
    bit<16> ancount;
    bit<16> nscount;
    bit<16> arcount;
}

struct headers_t {
    ethernet_t ethernet;
    ipv4_t     ipv4;
    tcp_t      tcp;
    udp_t      udp;
    dns_t      dns;
}
"""

_PARSER_BOILERPLATE = """\
parser SonataParser(packet_in pkt,
                    out headers_t hdr,
                    inout metadata_t meta,
                    inout standard_metadata_t std_meta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.ether_type) {
            0x0800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {
            6:  parse_tcp;
            17: parse_udp;
            default: accept;
        }
    }
    state parse_tcp {
        pkt.extract(hdr.tcp);
        transition accept;
    }
    state parse_udp {
        pkt.extract(hdr.udp);
        transition select(hdr.udp.src_port) {
            53: parse_dns;
            default: parse_dns_dport;
        }
    }
    state parse_dns_dport {
        transition select(hdr.udp.dst_port) {
            53: parse_dns;
            default: accept;
        }
    }
    state parse_dns {
        pkt.extract(hdr.dns);
        transition accept;
    }
}
"""

_FIELD_TO_P4 = {
    "ipv4.sIP": "hdr.ipv4.src_addr",
    "ipv4.dIP": "hdr.ipv4.dst_addr",
    "ipv4.proto": "hdr.ipv4.protocol",
    "ipv4.ttl": "hdr.ipv4.ttl",
    "tcp.sPort": "hdr.tcp.src_port",
    "tcp.dPort": "hdr.tcp.dst_port",
    "tcp.flags": "hdr.tcp.flags",
    "udp.sPort": "hdr.udp.src_port",
    "udp.dPort": "hdr.udp.dst_port",
    "dns.qr": "hdr.dns.qr",
    "dns.ancount": "hdr.dns.ancount",
    "dns.qtype": "meta.dns_qtype",
    "dns.rr.name": "meta.dns_name_digest",
    "pktlen": "std_meta.packet_length",
    "ts": "std_meta.ingress_global_timestamp",
}


def _meta_field(instance: str, name: str) -> str:
    safe = name.replace(".", "_").replace("/", "_")
    return f"meta.{instance}_{safe}"


def _p4_source(instance: str, name: str, derived: set[str]) -> str:
    if name in derived:
        return _meta_field(instance, name)
    return _FIELD_TO_P4.get(name, _meta_field(instance, name))


class P4Generator:
    """Emits one v1model P4 program for a set of compiled instances."""

    def __init__(self, program_name: str = "sonata") -> None:
        self.program_name = program_name
        self._instances: list[tuple[str, CompiledSubQuery, int]] = []

    def add_instance(
        self, key: str, compiled: CompiledSubQuery, n_operators: int
    ) -> None:
        safe = key.replace(".", "_").replace("@", "_at_").replace("-", "_")
        self._instances.append((safe, compiled, n_operators))

    # -- emission pieces -------------------------------------------------
    def _metadata_struct(self) -> list[str]:
        lines = ["struct metadata_t {", "    bit<16> dns_qtype;", "    bit<32> dns_name_digest;"]
        for safe, compiled, n_ops in self._instances:
            lines.append(f"    // query instance {safe}")
            lines.append(f"    bit<1>  {safe}_active;")
            lines.append(f"    bit<1>  {safe}_report;")
            lines.append(f"    bit<16> {safe}_qid;")
            derived: set[str] = set()
            for i in range(n_ops):
                schema = compiled.schemas[i + 1]
                for name in schema.fields:
                    if name in _FIELD_TO_P4 or name in derived:
                        continue
                    derived.add(name)
                    width = max(schema.width_of(name), 1)
                    safe_name = name.replace(".", "_")
                    lines.append(f"    bit<{width}> {safe}_{safe_name};")
            for table in compiled.tables_for_partition(n_ops):
                if table.stateful:
                    lines.append(f"    bit<32> {safe}_{table.name}_idx;")
                    lines.append(f"    bit<32> {safe}_{table.name}_val;")
        lines.append("}")
        return lines

    def _filter_table(self, safe: str, table: LogicalTable) -> list[str]:
        op = table.operator
        if not isinstance(op, Filter):
            raise CompilationError(f"table {table.name} is not a filter: {op!r}")
        lines = [f"    action {table.name}_drop() {{ meta.{safe}_active = 0; }}"]
        keys = []
        for pred in op.predicates:
            source = _p4_source(safe, pred.field, set())
            match_kind = "ternary" if pred.level is not None or pred.op != "eq" else "exact"
            if pred.op == "in":
                match_kind = "ternary"  # runtime-populated prefix entries
            keys.append(f"            {source}: {match_kind};")
        lines.append(f"    table {table.name} {{")
        lines.append("        key = {")
        lines.extend(keys)
        lines.append("        }")
        lines.append("        actions = { NoAction; " + f"{table.name}_drop; }}")
        lines.append(f"        default_action = {table.name}_drop();")
        lines.append("        size = 512;")
        lines.append("    }")
        return lines

    def _map_action(self, safe: str, table: LogicalTable, derived: set[str]) -> list[str]:
        op = table.operator
        if not isinstance(op, Map):
            raise CompilationError(f"table {table.name} is not a map: {op!r}")
        body = []
        for expr in op.keys + op.values:
            target = _meta_field(safe, expr.name)
            if isinstance(expr, FieldRef):
                body.append(f"        {target} = (bit<32>){_p4_source(safe, expr.field, derived)};")
            elif isinstance(expr, Const):
                body.append(f"        {target} = {expr.value};")
            elif isinstance(expr, Prefixed):
                mask = ((1 << expr.level) - 1) << (32 - expr.level) if expr.level else 0
                body.append(
                    f"        {target} = {_p4_source(safe, expr.field, derived)}"
                    f" & 0x{mask:08x};"
                )
            elif isinstance(expr, Quantized):
                shift = max(expr.step.bit_length() - 1, 0)
                body.append(
                    f"        {target} = ((bit<32>){_p4_source(safe, expr.field, derived)}"
                    f" >> {shift}) << {shift};"
                )
            elif isinstance(expr, Difference):
                body.append(
                    f"        {target} = {_p4_source(safe, expr.left, derived)}"
                    f" - {_p4_source(safe, expr.right, derived)};"
                )
            else:  # pragma: no cover - planner keeps these off the switch
                body.append(f"        // unsupported expression {expr!r}")
            derived.add(expr.name)
        return (
            [f"    action {table.name}_apply() {{"]
            + body
            + ["    }"]
            + [
                f"    table {table.name} {{",
                "        actions = { " + f"{table.name}_apply; }}",
                f"        default_action = {table.name}_apply();",
                "    }",
            ]
        )

    def _stateful_tables(
        self,
        safe: str,
        table: LogicalTable,
        derived: set[str],
        keys: tuple[str, ...],
    ) -> list[str]:
        op = table.operator
        register = table.register
        slot_count = register.n_slots if register else 1024
        lines = []
        for d in range(register.d if register else 1):
            lines.append(
                f"    register<bit<32>>({slot_count}) {table.name}_reg_{d};"
            )
            lines.append(
                f"    register<bit<{register.key_bits if register else 32}>>"
                f"({slot_count}) {table.name}_key_{d};"
            )
        key_args = ", ".join(_p4_source(safe, k, derived) for k in keys)
        lines.extend(
            [
                f"    action {table.name}_hash() {{",
                f"        hash(meta.{safe}_{table.name}_idx, HashAlgorithm.crc32,",
                f"             (bit<32>)0, {{ {key_args} }}, (bit<32>){slot_count});",
                "    }",
                f"    action {table.name}_update() {{",
                f"        bit<32> val;",
                f"        {table.name}_reg_0.read(val, meta.{safe}_{table.name}_idx);",
            ]
        )
        if isinstance(op, Reduce) and op.func in ("sum", "count"):
            value_name = (op.value_field or op.out).replace(".", "_")
            lines.append(f"        val = val + meta.{safe}_{value_name};")
        elif isinstance(op, Reduce) and op.func == "or":
            lines.append("        val = val | 1;")
        elif isinstance(op, Distinct):
            lines.append(f"        if (val == 1) {{ meta.{safe}_active = 0; }}")
            lines.append("        val = 1;")
        else:
            lines.append("        val = val + 1;")
        lines.append(
            f"        {table.name}_reg_0.write(meta.{safe}_{table.name}_idx, val);"
        )
        lines.append(f"        meta.{safe}_{table.name}_val = val;")
        if table.folded_filter is not None:
            # A folded filter holds only thresholds, each a gt or ge.
            passes = " && ".join(
                f"val {'>' if p.op == 'gt' else '>='} {p.value}"
                for p in table.folded_filter.predicates
            )
            lines.append(f"        if ({passes}) {{ meta.{safe}_report = 1; }}")
        elif isinstance(op, (Reduce, Distinct)):
            lines.append(f"        if (val == 1) {{ meta.{safe}_report = 1; }}")
        lines.append("    }")
        return lines

    def _ingress(self) -> list[str]:
        lines = [
            "control SonataIngress(inout headers_t hdr,",
            "                      inout metadata_t meta,",
            "                      inout standard_metadata_t std_meta) {",
        ]
        apply_blocks: list[str] = []
        for safe, compiled, n_ops in self._instances:
            derived: set[str] = set()
            apply_blocks.append(f"        meta.{safe}_active = 1;")
            for table in compiled.tables_for_partition(n_ops):
                if table.kind == "filter":
                    lines.extend(self._filter_table(safe, table))
                    apply_blocks.append(
                        f"        if (meta.{safe}_active == 1) {{ {table.name}.apply(); }}"
                    )
                elif table.kind == "map":
                    lines.extend(self._map_action(safe, table, derived))
                    apply_blocks.append(
                        f"        if (meta.{safe}_active == 1) {{ {table.name}.apply(); }}"
                    )
                elif table.kind.endswith("_idx"):
                    continue  # hashing emitted with the update table
                else:
                    op = table.operator
                    if isinstance(op, Reduce):
                        state_keys = op.keys
                    else:
                        schema_in = compiled.schemas[table.operator_index]
                        state_keys = op.effective_keys(schema_in)
                    lines.extend(
                        self._stateful_tables(safe, table, derived, state_keys)
                    )
                    apply_blocks.append(
                        f"        if (meta.{safe}_active == 1) {{"
                    )
                    apply_blocks.append(f"            {table.name}_hash();")
                    apply_blocks.append(f"            {table.name}_update();")
                    apply_blocks.append("        }")
            apply_blocks.append(
                f"        if (meta.{safe}_report == 1) {{ clone(CloneType.I2E, 99); }}"
            )
        lines.append("    apply {")
        lines.extend(apply_blocks)
        lines.append("    }")
        lines.append("}")
        return lines

    def generate(self) -> str:
        """Emit the complete P4-16 program."""
        sections = [
            f"// {self.program_name}: generated by the Sonata query compiler",
            _HEADER_BOILERPLATE,
            "\n".join(self._metadata_struct()),
            _PARSER_BOILERPLATE,
            "\n".join(self._ingress()),
            """\
control SonataDeparser(packet_out pkt, in headers_t hdr) {
    apply {
        pkt.emit(hdr.ethernet);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.tcp);
        pkt.emit(hdr.udp);
        pkt.emit(hdr.dns);
    }
}

control SonataVerifyChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply { }
}

control SonataComputeChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply { }
}

control SonataEgress(inout headers_t hdr,
                     inout metadata_t meta,
                     inout standard_metadata_t std_meta) {
    apply { }
}

V1Switch(SonataParser(),
         SonataVerifyChecksum(),
         SonataIngress(),
         SonataComputeChecksum(),
         SonataEgress(),
         SonataDeparser()) main;
""",
        ]
        return "\n".join(sections)


def generate_p4(
    instances: list[tuple[str, CompiledSubQuery, int]],
    program_name: str = "sonata",
) -> str:
    """Convenience: one-shot program generation for (key, compiled, cut)."""
    generator = P4Generator(program_name)
    for key, compiled, n_ops in instances:
        generator.add_instance(key, compiled, n_ops)
    return generator.generate()
