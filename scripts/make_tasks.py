#!/usr/bin/env python3
"""Generate the bundled task data for all four environments.

Every draw runs through a seeded RNG derived from stable_seed, so rerunning
this script reproduces the shipped JSON files exactly. The Game-of-24 suite
is picked by difficulty: exact per-rollout success probability q under a
0.3-competence proposer (the calibration reference point), keeping puzzles
whose correct-first-step fraction is at least 0.15 and taking the 50 hardest
by q. That tier keeps search variants separable without letting the root
expansion kill solvability too often.
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from agentsearch.envs.solution import evaluate_expression
from agentsearch.seeding import stable_seed
from agentsearch.solver24 import (
    TARGET, canon, format_number, legal_steps, number, solve, solvable, step_result,
)

import random

P_REFERENCE = 0.3
F1_MIN = 0.15
SUITE_SIZE = 50
MAX_EMBEDDED_SOLUTIONS = 10


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Game of 24
# --------------------------------------------------------------------------

def rollout_probability(numbers, memo):
    """Chance a single greedy rollout solves the puzzle when each proposal
    is a uniformly random correct step with probability P_REFERENCE and a
    uniformly random legal step otherwise."""
    key = canon(numbers)
    if key in memo:
        return memo[key]
    if len(numbers) == 1:
        q = 1.0 if numbers[0] == TARGET else 0.0
        memo[key] = q
        return q
    steps = legal_steps(numbers)
    correct = [s for s in steps if solvable(step_result(numbers, s))]
    if not correct:
        memo[key] = 0.0
        return 0.0
    q = 0.0
    for step in correct:
        weight = P_REFERENCE / len(correct) + (1.0 - P_REFERENCE) / len(steps)
        q += weight * rollout_probability(step_result(numbers, step), memo)
    memo[key] = q
    return q


def first_step_fraction(numbers) -> float:
    steps = legal_steps(numbers)
    correct = [s for s in steps if solvable(step_result(numbers, s))]
    return len(correct) / len(steps)


def make_game24(root: Path) -> int:
    memo = {}
    rows = []
    for combo in itertools.combinations_with_replacement(range(1, 14), 4):
        nums = [number(v) for v in combo]
        if not solvable(nums):
            continue
        frac1 = first_step_fraction(nums)
        if frac1 < F1_MIN:
            continue
        rows.append((rollout_probability(nums, memo), combo, frac1))
    rows.sort()
    picked = rows[:SUITE_SIZE]

    out_dir = root / "game24" / "puzzles"
    for rank, (q, combo, frac1) in enumerate(picked, start=1):
        task_id = "24-" + "-".join(str(v) for v in combo)
        _, lines = solve([number(v) for v in combo])
        write_json(out_dir / f"{task_id}.json", {
            "task_id": task_id,
            "kind": "game24",
            "payload": {"numbers": list(combo)},
            "metadata": {
                "difficulty_rank": rank,
                "rollout_q_at_0.3": round(q, 6),
                "correct_first_step_fraction": round(frac1, 6),
                "solutions": lines[:MAX_EMBEDDED_SOLUTIONS],
            },
        })
    return len(picked)


# --------------------------------------------------------------------------
# DocQA: a closed two-hop mini-encyclopedia
# --------------------------------------------------------------------------

FIRST_NAMES = [
    "Alva", "Bram", "Ceyda", "Dorian", "Elsbeth", "Fenwick", "Greta", "Halvar",
    "Imke", "Jorun", "Kaspar", "Linnea", "Milos", "Nerys", "Odalys", "Petter",
    "Quilla", "Ragna", "Soren", "Tova", "Ulrik", "Vesna", "Wendeline", "Xanthe",
    "Yrsa", "Zbigniew", "Annok", "Birgit", "Casimir", "Despina",
]
LAST_NAMES = [
    "Reinholt", "Valkenier", "Dragomir", "Estervan", "Fairweather", "Grindel",
    "Hollis", "Ivarsen", "Jendrik", "Kovach", "Lindqvist", "Marovic", "Nystrom",
    "Oberlin", "Paasonen", "Quist", "Rostova", "Solheim", "Tamboer", "Unger",
    "Vintner", "Wexford", "Ylvisaker", "Zeeman", "Arnesen", "Bellweather",
    "Corvelle", "Draay", "Eikeland", "Fossum",
]
NOVEL_WORDS_A = [
    "Meadow", "Harbor", "Winter", "Copper", "Lantern", "Ashen", "Velvet",
    "Juniper", "Marble", "Thistle", "Ember", "Glass", "Cedar", "Ivory",
    "Saffron", "Briar", "Granite", "Willow", "Amber", "Slate", "Fog",
    "Quarry", "Orchard", "Raven", "Tidal", "Moss", "Paper", "Iron",
    "Clover", "Dune",
]
NOVEL_WORDS_B = [
    "Ledger", "Procession", "Cartographer", "Inheritance", "Apiary",
    "Confession", "Meridian", "Waltz", "Almanac", "Reckoning", "Aviary",
    "Parliament", "Syllabus", "Causeway", "Vigil", "Armistice", "Lexicon",
    "Pilgrimage", "Estuary", "Monsoon", "Requiem", "Arcade", "Chorale",
    "Dossier", "Effigy", "Foundry", "Gambit", "Harvest", "Interlude",
    "Jubilee",
]
CITY_NAMES = [
    "Veldt Harbor", "Norrbruk", "Casteligo", "Drumlin Bay", "Eskerfeld",
    "Fjellmark", "Gildenport", "Hollowmere", "Istvara", "Jarnvik",
    "Kettlewick", "Lorvenna", "Mistral Point", "Nyhavnor", "Ostrellin",
    "Pellagrin", "Quaymouth", "Rimeholt", "Skarvald", "Tarnmoor",
    "Umbervale", "Vostergate", "Windrow", "Yarrowfield", "Zelvarra",
]
AWARD_WORDS = [
    "Gilded Quill", "Harbor Light", "Northern Compass", "Silver Meridian",
    "Amber Folio", "Cobalt Laurel", "Evergreen Scroll", "Ivory Spindle",
    "Lantern Rose", "Midland Garland", "Opal Stanza", "Pewter Anthem",
    "Russet Crown", "Twilight Plume", "Willow Mark",
]
GENRES = ["historical", "mystery", "maritime", "pastoral", "epistolary", "satirical"]
REGIONS = ["the Lowland Coast", "the Northern Reaches", "the Inland Plateau",
           "the Amber Archipelago", "the Western Marches"]
FEATURES = ["its tidal markets", "a centuries-old glassworks", "terraced orchards",
            "its limestone bridges", "a famous chandlery district", "winter lantern fairs"]
TRAITS = ["spare", "ornate", "wry", "melancholy", "briskly plotted", "richly detailed"]


def make_docqa(root: Path, n_tasks: int = 24) -> int:
    rng = random.Random(stable_seed("docqa-data", 1))
    authors = []
    used = set()
    while len(authors) < 30:
        name = f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
        if name not in used:
            used.add(name)
            authors.append(name)
    novels = []
    used_novels = set()
    while len(novels) < 30:
        title = f"The {rng.choice(NOVEL_WORDS_A)} {rng.choice(NOVEL_WORDS_B)}"
        if title not in used_novels:
            used_novels.add(title)
            novels.append(title)
    cities = list(CITY_NAMES)
    awards = [f"{w} Prize" for w in AWARD_WORDS]

    author_city = {a: rng.choice(cities) for a in authors}
    author_award = {a: rng.choice(awards) for a in authors}
    novel_author = {n: authors[i] for i, n in enumerate(novels)}
    novel_year = {n: rng.randint(1951, 2019) for n in novels}
    award_year = {a: rng.randint(1900, 1960) for a in awards}

    corpus = {}
    for novel in novels:
        author = novel_author[novel]
        corpus[novel] = [
            f"{novel} is a {rng.choice(GENRES)} novel published in {novel_year[novel]}.",
            f"It was written by {author}.",
            f"The novel is set near {rng.choice(cities)}.",
        ]
    for author in authors:
        corpus[author] = [
            f"{author} is a novelist born in {author_city[author]}.",
            f"{author} received the {author_award[author]} in {rng.randint(1975, 2020)}.",
            f"Critics describe {author}'s prose as {rng.choice(TRAITS)}.",
        ]
    for city in cities:
        corpus[city] = [
            f"{city} is a city in {rng.choice(REGIONS)}.",
            f"{city} is known for {rng.choice(FEATURES)}.",
        ]
    for award in awards:
        corpus[award] = [
            f"The {award} is a literary prize established in {award_year[award]}.",
            f"The {award} is presented in {rng.choice(cities)} each year.",
        ]

    write_json(root / "docqa" / "corpus.json", corpus)

    tasks_dir = root / "docqa" / "tasks"
    question_novels = rng.sample(novels, n_tasks)
    count = 0
    for i, novel in enumerate(question_novels, start=1):
        author = novel_author[novel]
        if i % 3 == 0:
            question = f"Which award did the author of {novel} receive?"
            answer = author_award[author]
            hops = [novel, author]
        elif i % 3 == 1:
            question = f"In which city was the author of {novel} born?"
            answer = author_city[author]
            hops = [novel, author]
        else:
            question = f"Who wrote {novel}?"
            answer = author
            hops = [novel]
        task_id = f"docqa-{i:02d}"
        write_json(tasks_dir / f"{task_id}.json", {
            "task_id": task_id,
            "kind": "docqa",
            "payload": {
                "question": question,
                "answer": answer,
                "corpus_file": "../corpus.json",
            },
            "metadata": {"hop_titles": hops},
        })
        count += 1
    return count


# --------------------------------------------------------------------------
# Shop: catalog and fully satisfiable instructions
# --------------------------------------------------------------------------

BRANDS = [
    "Arnwell", "Bostrell", "Cavorra", "Denmoor", "Elkford", "Fenrose",
    "Gantry", "Halcyard", "Ironvale", "Jessamine", "Kestwick", "Lorring",
    "Mistvale", "Nordgren", "Ostwick", "Pinebrook", "Quarrow", "Rendale",
    "Softmere", "Trellis",
]

CATEGORIES = [
    ("bed sheets", ["machine washable", "wrinkle free", "deep pocket",
                    "hypoallergenic", "breathable", "fade resistant"],
     {"size": ["twin", "full", "queen", "king"],
      "color": ["white", "ivory", "sage", "navy", "charcoal"]}),
    ("water bottle", ["leak proof", "bpa free", "double insulated",
                      "dishwasher safe", "wide mouth"],
     {"size": ["12 ounce", "18 ounce", "24 ounce", "32 ounce"],
      "color": ["steel", "black", "coral", "mint"]}),
    ("desk lamp", ["dimmable", "adjustable arm", "usb charging port",
                   "touch control", "flicker free"],
     {"color": ["black", "white", "brass", "silver"]}),
    ("office chair", ["ergonomic", "adjustable height", "mesh back",
                      "lumbar support", "swivel base"],
     {"color": ["black", "gray", "blue"]}),
    ("running shoes", ["lightweight", "breathable", "non slip",
                       "arch support", "cushioned sole"],
     {"size": ["size 7", "size 8", "size 9", "size 10", "size 11"],
      "color": ["black", "white", "red", "teal"]}),
    ("backpack", ["water resistant", "padded straps", "laptop sleeve",
                  "anti theft", "expandable"],
     {"size": ["20 liter", "30 liter", "40 liter"],
      "color": ["black", "olive", "burgundy"]}),
    ("coffee maker", ["programmable", "auto shutoff", "thermal carafe",
                      "self cleaning", "compact"],
     {"size": ["4 cup", "8 cup", "12 cup"],
      "color": ["black", "stainless", "white"]}),
    ("yoga mat", ["non slip", "extra thick", "eco friendly",
                  "moisture resistant", "lightweight"],
     {"size": ["4 millimeter", "6 millimeter", "8 millimeter"],
      "color": ["purple", "teal", "gray", "rose"]}),
    ("headphones", ["noise cancelling", "wireless", "foldable",
                    "built in microphone", "long battery life"],
     {"color": ["black", "white", "blue", "rose gold"]}),
    ("throw blanket", ["machine washable", "fleece lined", "oversized",
                       "reversible", "pill resistant"],
     {"size": ["50 by 60 inch", "60 by 80 inch"],
      "color": ["cream", "forest", "plaid", "slate"]}),
]

ADJECTIVES = ["classic", "premium", "everyday", "studio", "compact", "deluxe",
              "essential", "heritage", "modern", "signature"]


def make_shop(root: Path, n_products: int = 200, n_tasks: int = 24) -> int:
    rng = random.Random(stable_seed("shop-data", 1))
    products = []
    used_titles = set()
    per_category = n_products // len(CATEGORIES)
    pid_counter = 0
    for noun, attr_pool, option_pool in CATEGORIES:
        for _ in range(per_category):
            while True:
                title = (f"{rng.choice(BRANDS)} {rng.choice(ADJECTIVES)} "
                         f"{noun}")
                if title not in used_titles:
                    used_titles.add(title)
                    break
            pid_counter += 1
            options = {}
            for opt_type, values in option_pool.items():
                k = rng.randint(2, min(4, len(values)))
                options[opt_type] = sorted(rng.sample(values, k))
            products.append({
                "id": f"P{pid_counter:03d}",
                "title": title,
                "price": round(rng.uniform(8.0, 120.0), 2),
                "attributes": sorted(rng.sample(attr_pool, rng.randint(2, 4))),
                "options": options,
            })

    write_json(root / "shop" / "catalog.json", products)

    tasks_dir = root / "shop" / "tasks"
    # two tasks per category, each built from a concrete product so that a
    # perfect purchase (reward 1.0) always exists
    targets = []
    for c in range(len(CATEGORIES)):
        block = products[c * per_category:(c + 1) * per_category]
        targets.extend(rng.sample(block, max(1, n_tasks // len(CATEGORIES))))
    targets = targets[:n_tasks]
    for i, product in enumerate(targets, start=1):
        attrs = sorted(rng.sample(product["attributes"],
                                  rng.randint(1, min(2, len(product["attributes"])))))
        opt_type = rng.choice(sorted(product["options"]))
        opt_value = rng.choice(product["options"][opt_type])
        price_cap = float(int(product["price"] + rng.uniform(5.0, 30.0)) + 1)
        noun = product["title"].split(" ", 2)[2]
        instruction = (f"i am looking for {' and '.join(attrs)} {noun} with "
                       f"{opt_value} {opt_type}, and price lower than "
                       f"{price_cap:.0f} dollars")
        task_id = f"shop-{i:02d}"
        write_json(tasks_dir / f"{task_id}.json", {
            "task_id": task_id,
            "kind": "shop",
            "payload": {
                "instruction": instruction,
                "attributes": attrs,
                "options": {opt_type: opt_value},
                "price_cap": price_cap,
                "catalog_file": "../catalog.json",
            },
            "metadata": {"target_product": product["id"],
                         "target_title": product["title"]},
        })
    return len(targets)


# --------------------------------------------------------------------------
# Solution synthesis tasks
# --------------------------------------------------------------------------

REFERENCE_EXPRESSIONS = [
    "3*x + 2", "x*x", "2*x - 5", "x*x + x", "(x + 3) * 2", "x*x - 4",
    "5*x", "x + 7", "2*x*x + 1", "x*x + 3*x + 2", "7 - x", "x*x*x",
    "4*x + x", "(x - 1) * (x + 1)", "10 - 2*x", "x*x + 2*x", "6*x - 9",
    "x*x - x", "(2*x + 1) * 3", "x + x + x", "x*x + 10", "8*x - x*x",
]


def make_solution(root: Path) -> int:
    rng = random.Random(stable_seed("solution-data", 1))
    tasks_dir = root / "solution" / "tasks"
    count = 0
    for i, ref in enumerate(REFERENCE_EXPRESSIONS, start=1):
        inputs = rng.sample(range(-6, 10), rng.randint(5, 7))
        tests = []
        for x in inputs:
            expected = evaluate_expression(ref, number(x))
            tests.append({"input": x, "expected": format_number(expected)})
        task_id = f"expr-{i:02d}"
        statement = (f"Write an arithmetic expression in x that computes "
                     f"f(x) = {ref} for every test input.")
        write_json(tasks_dir / f"{task_id}.json", {
            "task_id": task_id,
            "kind": "solution",
            "payload": {"statement": statement, "tests": tests},
            "metadata": {"reference": ref},
        })
        count += 1
    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_root = Path(__file__).resolve().parents[1] / "src" / "agentsearch" / "data"
    parser.add_argument("--root", type=Path, default=default_root,
                        help="data directory to write into")
    args = parser.parse_args()
    n24 = make_game24(args.root)
    nqa = make_docqa(args.root)
    nshop = make_shop(args.root)
    nsol = make_solution(args.root)
    print(f"game24 puzzles: {n24}")
    print(f"docqa tasks:    {nqa}")
    print(f"shop tasks:     {nshop}")
    print(f"solution tasks: {nsol}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
