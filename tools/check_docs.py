#!/usr/bin/env python3
"""Documentation consistency checker (the CI docs job).

Checks, with no third-party dependencies:

1. Every relative markdown link in README.md, ROADMAP.md, and docs/*.md
   points at a file or directory that exists (anchors are stripped;
   http(s)/mailto links are only syntax-checked).
2. Every bench target named in docs/paper_map.md (``bench_<name>`` or
   ``BENCH_<name>.json``) corresponds to a real ``bench/<name>.cc`` file --
   and every ``bench/*.cc`` target is covered by docs/paper_map.md, so the
   paper map can never silently fall behind the benchmarks.
3. The environment knobs the library reads -- the exact ``"DBLREP_..."``
   string literals in ``src/`` -- are exactly the rows of README.md's
   "Environment knobs" table, so a knob can be neither undocumented nor
   documented after its removal.
4. Every backticked C++ name in README.md and docs/*.md that is qualified
   (``ns::Name``, ``Class::member``, optionally called as ``f()``) or
   CamelCase (``StripeLayout``) names code that exists: each of its
   ``::``-separated parts appears as a word in ``src/``. A class renamed or
   deleted in the code then cannot linger in the docs.

Exit code 0 when everything checks out, 1 with a per-finding report
otherwise.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Markdown inline links: [text](target). Reference-style links are not used
# in this repo.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BENCH_NAME_RE = re.compile(r"\bbench_([a-z0-9_]+)\b|\bBENCH_([a-z0-9_]+)\.json\b")
KNOB_LITERAL_RE = re.compile(r'"(DBLREP_[A-Z0-9_]+)"')
KNOB_ROW_RE = re.compile(r"^\| `(DBLREP_[A-Z0-9_]+)` \|", re.MULTILINE)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# An identifier path, optionally followed by one call's parentheses.
CODE_NAME_RE = re.compile(r"^((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)(?:\([^()]*\))?$")
CAMEL_CASE_RE = re.compile(r"^[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+$")


def doc_files() -> list[pathlib.Path]:
    files = [REPO / "README.md", REPO / "ROADMAP.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links(errors: list[str]) -> None:
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}"
                )


def check_paper_map(errors: list[str]) -> None:
    paper_map = REPO / "docs" / "paper_map.md"
    if not paper_map.exists():
        errors.append("docs/paper_map.md is missing")
        return
    text = paper_map.read_text(encoding="utf-8")

    named = set()
    for match in BENCH_NAME_RE.finditer(text):
        named.add(match.group(1) or match.group(2))

    real = {p.stem for p in (REPO / "bench").glob("*.cc")}

    for name in sorted(named - real):
        errors.append(
            f"docs/paper_map.md names bench target '{name}' but "
            f"bench/{name}.cc does not exist"
        )
    for name in sorted(real - named):
        errors.append(
            f"bench/{name}.cc has no entry in docs/paper_map.md "
            "(every bench target must be mapped)"
        )


def sources() -> list[pathlib.Path]:
    return [p for p in sorted((REPO / "src").rglob("*")) if p.suffix in (".h", ".cc")]


def check_knobs(errors: list[str]) -> None:
    read = set()
    for source in sources():
        read.update(KNOB_LITERAL_RE.findall(source.read_text(encoding="utf-8")))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    start = readme.find("## Environment knobs")
    if start < 0:
        errors.append("README.md has no 'Environment knobs' section")
        return
    end = readme.find("\n## ", start + 1)
    documented = set(KNOB_ROW_RE.findall(readme[start:end if end >= 0 else None]))
    for knob in sorted(read - documented):
        errors.append(f"src/ reads {knob} but README.md's knob table has no row for it")
    for knob in sorted(documented - read):
        errors.append(f"README.md's knob table documents {knob}, which src/ never reads")


def check_code_names(errors: list[str]) -> int:
    """Check 4; returns how many distinct names it checked."""
    words = set()
    for source in sources():
        words.update(re.findall(r"\w+", source.read_text(encoding="utf-8")))
    docs = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    checked = set()
    for doc in docs:
        lines = doc.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            for span in CODE_SPAN_RE.findall(line):
                match = CODE_NAME_RE.match(span.strip())
                if not match:
                    continue
                name = match.group(1)
                if "::" not in name and not CAMEL_CASE_RE.match(name):
                    continue
                checked.add(name)
                missing = [part for part in name.split("::") if part not in words]
                if missing:
                    errors.append(
                        f"{doc.relative_to(REPO)}:{lineno}: `{span}` names "
                        f"{', '.join(missing)}, which src/ never mentions"
                    )
    return len(checked)


def main() -> int:
    errors: list[str] = []
    check_links(errors)
    check_paper_map(errors)
    check_knobs(errors)
    names = check_code_names(errors)
    if errors:
        print(f"check_docs: {len(errors)} problem(s):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(
        f"check_docs: OK ({len(doc_files())} docs link-checked, "
        "paper map covers every bench target, knob table matches src/, "
        f"{names} code names in the docs exist in src/)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
